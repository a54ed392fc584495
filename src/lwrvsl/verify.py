"""Self-checking property suite backing the verify command.

Each check measures a quantity with an independent method and compares
it against a fixed bound: the Riccati ODE residual of the closed form,
closed form versus RK4 backward integration (ORACLE_STEPS = 10,000
steps), the composed feedback law (feedback_gain, then control_field)
versus its explicit expression (control_field_explicit), discrete mass
balance of the nonlinear solver, first-order L1 convergence of both
plants, and the second-order shrinkage of the gap between the linear and
nonlinear models as perturbation amplitudes are halved.

Every run goes through run_simulation, so the checks see the step policy
that the driver uses. The convergence studies run the reference sine
bump with control off under a quiet upstream boundary for
CONVERGENCE_TIME seconds and score the final frame against the exact
solution along characteristics, which is built from the documented
formulas and the scenario's fields, not from initial_condition or
assemble_problem. run_all_checks reports a check that raises SolverError
or ValueError as failed and runs the rest.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .params import M_PER_KM
from .riccati import (
    RiccatiProblem,
    assemble_problem,
    control_field,
    control_field_explicit,
    feedback_gain,
    phi_closed_form,
    phi_numeric_oracle,
)
from .scenario import (
    MODELS,
    REFERENCE_Q0,
    REFERENCE_Q0_VALUES,
    Scenario,
    initial_condition,
    mass_balance_defect,
    q0_label,
    reference_scenario,
    run_simulation,
)
from .solvers import SolverError

RESIDUAL_BOUND = 1e-8
ORACLE_BOUND = 1e-8
# RK4 steps of the oracle. Its worst gap to the closed form (sup norm over
# max Phi, reference q0, r0 = 1) is 6.5e-15 at 5k steps, 3.6e-15 at 10k,
# 5.1e-15 at 20k and 2.6e-14 at 100k: past 10k, round-off outgrows the
# truncation error, so more steps cost time and buy no accuracy.
ORACLE_STEPS = 10_000
FEEDBACK_PATHS_BOUND = 1e-12
FEEDBACK_PATHS_R0 = (0.25, 1.0, 4.0)
CONSERVATION_BOUND = 1e-9
CONVERGENCE_RANGE = (1.7, 2.3)
LINEARIZATION_RANGE = (3.0, 5.0)

# the convergence studies: grids, and the simulated time at which the
# error is scored, well before the reference bump's first shock
CONVERGENCE_CELLS = (100, 200, 400)
CONVERGENCE_TIME = 30.0
# amplitude scales of the linearization study, halving each time
LINEARIZATION_SCALES = (1.0, 0.5, 0.25)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one property check."""

    name: str
    passed: bool
    measured: float
    bound: str
    detail: str = ""


def default_problem() -> RiccatiProblem:
    return assemble_problem(reference_scenario().params, REFERENCE_Q0)


def check_phi_boundary() -> CheckResult:
    """Phi(L) must be exactly zero (bit-exact vanishing numerator)."""
    problem = default_problem()
    value = phi_closed_form(problem.length, problem)
    return CheckResult(
        name="riccati-boundary",
        passed=value == 0.0,
        measured=value,
        bound="== 0 exactly",
    )


def check_riccati_residual() -> CheckResult:
    """ODE residual of the closed form from 4th-order central differences."""
    problem = default_problem()
    z = np.linspace(0.0, problem.length, 10_000)
    h = z[1] - z[0]
    phi = phi_closed_form(z, problem)
    dphi = (-phi[4:] + 8.0 * phi[3:-1] - 8.0 * phi[1:-3] + phi[:-4]) / (12.0 * h)
    interior = phi[2:-2]
    residual = np.abs(
        problem.v_coef * dphi
        - (problem.q0 - problem.b0_coef**2 * interior**2 / problem.r0)
    )
    measured = float(residual.max() / problem.q0)
    return CheckResult(
        name="riccati-residual",
        passed=measured < RESIDUAL_BOUND,
        measured=measured,
        bound=f"< {RESIDUAL_BOUND:g} (relative to q0)",
    )


def check_oracle_equivalence() -> CheckResult:
    """Closed form vs fixed-step RK4 backward integration, sup-norm relative."""
    params = reference_scenario().params
    worst = 0.0
    details = []
    for q0 in REFERENCE_Q0_VALUES:
        problem = assemble_problem(params, q0)
        z, phi_oracle = phi_numeric_oracle(problem, ORACLE_STEPS)
        phi = phi_closed_form(z, problem)
        error = float(np.max(np.abs(phi - phi_oracle)) / np.max(phi))
        details.append(f"q0={q0_label(q0)}: {error:.3e}")
        worst = max(worst, error)
    return CheckResult(
        name="riccati-oracle",
        passed=worst < ORACLE_BOUND,
        measured=worst,
        bound=f"< {ORACLE_BOUND:g}",
        detail="; ".join(details),
    )


def check_feedback_paths() -> CheckResult:
    """Composed feedback law vs its explicit expression, sup-norm relative.

    Both act on the reference initial perturbation on the reference grid,
    for each reference q0 and each r0 in FEEDBACK_PATHS_R0.
    """
    scenario = reference_scenario()
    grid = scenario.grid
    delta = initial_condition(grid.cell_centers, scenario) - scenario.params.rho_0
    worst = 0.0
    details = []
    for r0 in FEEDBACK_PATHS_R0:
        gaps = []
        for q0 in REFERENCE_Q0_VALUES:
            problem = assemble_problem(scenario.params, q0, r0)
            composed = control_field(delta, feedback_gain(grid.interfaces, problem))
            explicit = control_field_explicit(delta, problem, grid)
            gaps.append(float(np.max(np.abs(composed - explicit)) / np.max(np.abs(composed))))
        details.append(f"r0={r0:g}: {max(gaps):.3e}")
        worst = max(worst, *gaps)
    return CheckResult(
        name="feedback-paths",
        passed=worst <= FEEDBACK_PATHS_BOUND,
        measured=worst,
        bound=f"<= {FEEDBACK_PATHS_BOUND:g} (relative)",
        detail="; ".join(details),
    )


def check_conservation() -> CheckResult:
    """Mass balance of the closed-loop nonlinear reference run."""
    history = run_simulation(reference_scenario(model="nonlinear"))
    _, measured = mass_balance_defect(history)
    return CheckResult(
        name="conservation",
        passed=measured < CONSERVATION_BOUND,
        measured=measured,
        bound=f"< {CONSERVATION_BOUND:g} (relative)",
    )


def _final_density(scenario: Scenario) -> np.ndarray:
    """Absolute density at the end of the scenario's run, recorded only there."""
    return run_simulation(scenario, scenario.params.sim_time).density_frames[-1]


def _exact_density(z: np.ndarray, scenario: Scenario) -> np.ndarray:
    """Exact density at sim_time of a convergence scenario, from its documented form.

    The initial bump rho_0 + A sin(pi z / L) and the upstream rho_0 travel
    along characteristics at c(rho) = b_0 u_max (1 - 2 rho / rho_max): at
    the frozen |V| = c(rho_0) on the linear plant, and at the speed of the
    density they carry on the nonlinear one, where Newton solves
    z0 + c(rho(z0)) t = z for each foot z0, valid until characteristics
    cross (~159 s on the reference bump). A foot behind z = 0 carries rho_0.
    """
    p = scenario.params
    t = p.sim_time
    amplitude = scenario.ic_amplitude / M_PER_KM
    dc_drho = -2.0 * p.b_0 * p.u_max / p.rho_max

    def initial(foot: np.ndarray) -> np.ndarray:
        return p.rho_0 + amplitude * np.sin(np.pi * foot / p.road_length)

    def char_speed(rho: np.ndarray | float) -> np.ndarray | float:
        return p.b_0 * p.u_max + dc_drho * rho

    if scenario.model == "linear":
        foot = z - char_speed(p.rho_0) * t
    else:
        foot = z - char_speed(initial(z)) * t
        for _ in range(10):  # on the reference bump, round-off is reached by step 6
            slope = amplitude * np.pi / p.road_length * np.cos(np.pi * foot / p.road_length)
            g = foot + char_speed(initial(foot)) * t - z
            foot = foot - g / (1.0 + dc_drho * slope * t)
    return np.where(foot > 0.0, initial(foot), p.rho_0)


def convergence_l1_errors(model: str, n_cells_list: tuple[int, ...]) -> list[float]:
    """L1 errors at CONVERGENCE_TIME of the driver's run, one per grid.

    Each run is run_simulation, step policy included, on the reference
    bump with control off under a quiet upstream boundary; _exact_density
    scores its final frame.
    """
    errors = []
    for n_cells in n_cells_list:
        scenario = dataclasses.replace(
            reference_scenario(
                model=model, control_enabled=False, n_cells=n_cells, sim_time=CONVERGENCE_TIME
            ),
            bc_osc_amplitude=0.0,
            bc_growth_rate=0.0,
        )
        error = _final_density(scenario) - _exact_density(scenario.grid.cell_centers, scenario)
        errors.append(float(np.sum(np.abs(error)) * scenario.grid.dz))
    return errors


def _ratio_check(name: str, errors: list[float], bounds: tuple[float, float]) -> CheckResult:
    ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
    low, high = bounds
    passed = all(low <= r <= high for r in ratios)
    worst = max(ratios, key=lambda r: abs(r - 0.5 * (low + high)))
    return CheckResult(
        name=name,
        passed=passed,
        measured=float(worst),
        bound=f"in [{low}, {high}]",
        detail="ratios: " + ", ".join(f"{r:.3f}" for r in ratios),
    )


def check_convergence_linear() -> CheckResult:
    errors = convergence_l1_errors("linear", CONVERGENCE_CELLS)
    return _ratio_check("convergence-linear", errors, CONVERGENCE_RANGE)


def check_convergence_nonlinear() -> CheckResult:
    errors = convergence_l1_errors("nonlinear", CONVERGENCE_CELLS)
    return _ratio_check("convergence-nonlinear", errors, CONVERGENCE_RANGE)


def check_convergence_coarse() -> CheckResult:
    """One refinement of the linear study from a deliberately coarse 8-cell grid."""
    return _ratio_check(
        "convergence-coarse", convergence_l1_errors("linear", (8, 16)), CONVERGENCE_RANGE
    )


def linearization_gaps() -> list[float]:
    """Sup-norm gap at final time between the two models, control off.

    Both models run from identically scaled initial and boundary
    perturbations on the same grid with the same fixed step, so the gap
    isolates the linearization remainder.
    """
    gaps = []
    for scale in LINEARIZATION_SCALES:
        finals = [
            _final_density(
                reference_scenario(model=model, control_enabled=False, amplitude_scale=scale)
            )
            for model in MODELS
        ]
        gaps.append(float(np.max(np.abs(finals[0] - finals[1]))))
    return gaps


def check_linearization() -> CheckResult:
    gaps = linearization_gaps()
    return _ratio_check("linearization", gaps, LINEARIZATION_RANGE)


def run_all_checks() -> list[CheckResult]:
    """The full suite, in a fixed order.

    A check that raises SolverError or ValueError fails with measured NaN
    and the error as its detail, and the checks after it still run.
    """
    results = []
    for name, check in (
        ("riccati-boundary", check_phi_boundary),
        ("riccati-residual", check_riccati_residual),
        ("riccati-oracle", check_oracle_equivalence),
        ("feedback-paths", check_feedback_paths),
        ("conservation", check_conservation),
        ("convergence-linear", check_convergence_linear),
        ("convergence-nonlinear", check_convergence_nonlinear),
        ("convergence-coarse", check_convergence_coarse),
        ("linearization", check_linearization),
    ):
        try:
            results.append(check())
        except (SolverError, ValueError) as exc:
            detail = f"{type(exc).__name__}: {exc}"
            results.append(CheckResult(name, False, float("nan"), "not reached", detail))
    return results
