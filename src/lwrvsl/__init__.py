"""Linear-quadratic variable-speed-limit control for the LWR traffic model.

The package assembles a closed-form Riccati state feedback for the
linearized free-flow plant and applies it to both the linear
perturbation equation and the nonlinear LWR conservation law, with a
deterministic simulation, metrics, and artifact pipeline behind the
``lwrvsl`` command line tool.

The root holds the entry points of the library example in the README;
every other name is imported from the module that defines it.
"""

from .params import params_from_paper_units
from .riccati import assemble_problem, feedback_gain
from .scenario import reference_scenario, run_simulation

__version__ = "0.1.0"

__all__ = [
    "assemble_problem",
    "feedback_gain",
    "params_from_paper_units",
    "reference_scenario",
    "run_simulation",
    "__version__",
]
