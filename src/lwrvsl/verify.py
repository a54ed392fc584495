"""Self-checking property suite backing the verify command.

Each check measures a quantity with an independent method and compares
it against a fixed bound: the Riccati ODE residual of the closed form,
closed form versus RK4 backward integration (ORACLE_STEPS = 10,000
steps), the composed feedback law (feedback_gain, then control_field)
versus its explicit expression (control_field_explicit), discrete mass
balance of the nonlinear solver, first-order L1 convergence of both
solvers on a smooth transported bump, and the second-order shrinkage of
the gap between the linear and nonlinear models as perturbation
amplitudes are halved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import TrafficParams, make_grid
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
    absolute_density,
    initial_condition,
    mass_balance_defect,
    q0_label,
    reference_scenario,
    run_simulation,
)
from .solvers import apply_boundary, stable_dt, step_linear, step_nonlinear

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

# smooth compactly supported bump used by the convergence studies
BUMP_START = 400.0
BUMP_WIDTH = 1200.0
# the convergence studies: grids, Courant number, and per plant the final
# time and bump amplitude (cars/m); the nonlinear bump is small enough that
# no shock forms before its final time
CONVERGENCE_CELLS = (100, 200, 400)
CONVERGENCE_CFL = 0.5
LINEAR_FINAL_TIME, LINEAR_AMPLITUDE = 20.0, 0.01
NONLINEAR_FINAL_TIME, NONLINEAR_AMPLITUDE = 30.0, 0.004
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


def _bump(z: np.ndarray, amplitude: float) -> np.ndarray:
    """C1 compactly supported bump: A sin^2(pi (z - z0) / w) on its support."""
    phase = (z - BUMP_START) / BUMP_WIDTH
    inside = (phase > 0.0) & (phase < 1.0)
    return np.where(inside, amplitude * np.sin(np.pi * phase) ** 2, 0.0)


def _bump_slope(z: np.ndarray, amplitude: float) -> np.ndarray:
    phase = (z - BUMP_START) / BUMP_WIDTH
    inside = (phase > 0.0) & (phase < 1.0)
    return np.where(
        inside,
        amplitude * np.pi / BUMP_WIDTH * np.sin(2.0 * np.pi * phase),
        0.0,
    )


def linear_convergence_l1_errors(n_cells_list: tuple[int, ...]) -> list[float]:
    """L1 errors of the upwind perturbation solver on a transported bump.

    Zero boundary perturbation; the exact solution is the bump advected
    at the frozen speed |V|.
    """
    final_time, amplitude = LINEAR_FINAL_TIME, LINEAR_AMPLITUDE
    problem = default_problem()
    speed = -problem.v_coef
    errors = []
    for n_cells in n_cells_list:
        grid = make_grid(problem.length, n_cells)
        n_steps = math.ceil(final_time / stable_dt(grid.dz, speed, CONVERGENCE_CFL))
        dt = final_time / n_steps
        state = _bump(grid.cell_centers, amplitude)
        zeros = np.zeros(grid.n_cells + 1)
        extended = np.empty(grid.n_cells + 2)
        for _ in range(n_steps):
            apply_boundary(extended, state, 0.0)
            state, _ = step_linear(grid, extended, zeros, problem, dt)
        exact = _bump(grid.cell_centers - speed * final_time, amplitude)
        errors.append(float(np.sum(np.abs(state - exact)) * grid.dz))
    return errors


def _nonlinear_exact(
    z: np.ndarray, final_time: float, amplitude: float, params: TrafficParams
) -> np.ndarray:
    """Pre-shock solution by the method of characteristics plus Newton.

    Solves z0 + c(rho(z0)) t = z for the characteristic foot of every
    query point; valid while characteristics do not cross.
    """
    slope_factor = -2.0 * params.u_max / params.rho_max  # d(char speed)/d(rho)

    def char_speed(rho: np.ndarray) -> np.ndarray:
        return params.u_max * (1.0 - 2.0 * rho / params.rho_max)

    foot = z - char_speed(params.rho_0 + _bump(z, amplitude)) * final_time
    for _ in range(60):
        rho = params.rho_0 + _bump(foot, amplitude)
        g = foot + char_speed(rho) * final_time - z
        dg = 1.0 + slope_factor * _bump_slope(foot, amplitude) * final_time
        foot = foot - g / dg
    return params.rho_0 + _bump(foot, amplitude)


def nonlinear_convergence_l1_errors() -> list[float]:
    """L1 errors of the Godunov solver against the characteristics oracle."""
    final_time, amplitude = NONLINEAR_FINAL_TIME, NONLINEAR_AMPLITUDE
    params = reference_scenario(sim_time=final_time).params
    # the bump only raises rho, and in free flow a higher rho is a slower wave
    wave_bound = -default_problem().v_coef
    errors = []
    for n_cells in CONVERGENCE_CELLS:
        grid = make_grid(params.road_length, n_cells)
        n_steps = math.ceil(final_time / stable_dt(grid.dz, wave_bound, CONVERGENCE_CFL))
        dt = final_time / n_steps
        state = params.rho_0 + _bump(grid.cell_centers, amplitude)
        b_profile = np.full(grid.n_cells + 1, params.b_0)
        extended = np.empty(grid.n_cells + 2)
        for _ in range(n_steps):
            apply_boundary(extended, state, params.rho_0)
            state, _ = step_nonlinear(grid, extended, b_profile, params, dt)
        exact = _nonlinear_exact(grid.cell_centers, final_time, amplitude, params)
        errors.append(float(np.sum(np.abs(state - exact)) * grid.dz))
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
    return _ratio_check(
        "convergence-linear", linear_convergence_l1_errors(CONVERGENCE_CELLS), CONVERGENCE_RANGE
    )


def check_convergence_nonlinear() -> CheckResult:
    return _ratio_check(
        "convergence-nonlinear", nonlinear_convergence_l1_errors(), CONVERGENCE_RANGE
    )


def check_convergence_coarse() -> CheckResult:
    """One refinement from a deliberately coarse 8-cell grid."""
    return _ratio_check(
        "convergence-coarse", linear_convergence_l1_errors((8, 16)), CONVERGENCE_RANGE
    )


def linearization_gaps() -> list[float]:
    """Sup-norm gap at final time between the two models, control off.

    Both models run from identically scaled initial and boundary
    perturbations on the same grid with the same fixed step, so the gap
    isolates the linearization remainder.
    """
    gaps = []
    for scale in LINEARIZATION_SCALES:
        finals = []
        for model in MODELS:
            scenario = reference_scenario(
                model=model, control_enabled=False, amplitude_scale=scale
            )
            finals.append(absolute_density(run_simulation(scenario))[-1])
        gaps.append(float(np.max(np.abs(finals[0] - finals[1]))))
    return gaps


def check_linearization() -> CheckResult:
    gaps = linearization_gaps()
    return _ratio_check("linearization", gaps, LINEARIZATION_RANGE)


def run_all_checks() -> list[CheckResult]:
    """The full suite, in a fixed order."""
    return [
        check_phi_boundary(),
        check_riccati_residual(),
        check_oracle_equivalence(),
        check_feedback_paths(),
        check_conservation(),
        check_convergence_linear(),
        check_convergence_nonlinear(),
        check_convergence_coarse(),
        check_linearization(),
    ]
