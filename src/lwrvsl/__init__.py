"""Linear-quadratic variable-speed-limit control for the LWR traffic model.

The package assembles a closed-form Riccati state feedback for the
linearized free-flow plant and applies it to both the linear
perturbation equation and the nonlinear LWR conservation law, with a
deterministic simulation, metrics, and artifact pipeline behind the
``lwrvsl`` command line tool.
"""

from .config import ConfigError, RunConfig, parse_config
from .output import write_riccati_artifacts, write_run_artifacts
from .fundamental import (
    characteristic_speed,
    critical_density,
    equilibrium_speed,
    flux,
    vsl_speed,
)
from .params import (
    KMH_PER_MPS,
    M_PER_KM,
    Grid1D,
    TrafficParams,
    make_grid,
    params_from_paper_units,
)
from .riccati import (
    DEFAULT_B_CLAMP,
    RiccatiProblem,
    assemble_problem,
    control_field,
    control_field_explicit,
    feedback_gain,
    integrate_vsl,
    phi_closed_form,
    phi_numeric_oracle,
)
from .scenario import (
    REFERENCE_Q0_VALUES,
    Scenario,
    SimulationHistory,
    initial_condition,
    reference_scenario,
    run_simulation,
    sweep_q0,
    target_cars,
    time_to_target,
    total_cars,
    upstream_boundary,
)
from .solvers import (
    SolverError,
    apply_boundary,
    godunov_interface_flux,
    step_linear,
    step_nonlinear,
)

__version__ = "0.1.0"

__all__ = [
    "KMH_PER_MPS",
    "ConfigError",
    "DEFAULT_B_CLAMP",
    "Grid1D",
    "M_PER_KM",
    "REFERENCE_Q0_VALUES",
    "RiccatiProblem",
    "RunConfig",
    "Scenario",
    "SimulationHistory",
    "SolverError",
    "TrafficParams",
    "apply_boundary",
    "assemble_problem",
    "characteristic_speed",
    "control_field",
    "control_field_explicit",
    "critical_density",
    "equilibrium_speed",
    "feedback_gain",
    "flux",
    "godunov_interface_flux",
    "initial_condition",
    "integrate_vsl",
    "make_grid",
    "reference_scenario",
    "params_from_paper_units",
    "parse_config",
    "phi_closed_form",
    "phi_numeric_oracle",
    "run_simulation",
    "step_linear",
    "step_nonlinear",
    "sweep_q0",
    "target_cars",
    "time_to_target",
    "total_cars",
    "upstream_boundary",
    "vsl_speed",
    "write_riccati_artifacts",
    "write_run_artifacts",
    "__version__",
]
