"""Finite-volume steppers for the traffic density equations.

Two explicit first-order schemes share the grid and boundary plumbing:

- step_linear advects the density perturbation drho around the equilibrium
  (rho_0, b_0): d(drho)/dt = V d(drho)/dz + B0 u, with constant V < 0
  (rightward transport at speed |V|) and the control u = db/dz entering as
  a source term. V and B0 are read from the run's RiccatiProblem, so the
  linear plant is exactly the model the LQ gain is designed on.
- step_nonlinear updates the conservation law d(rho)/dt + d(q)/dz = 0 with
  the VSL flux q = rho b u_max (1 - rho/rho_max), using the Godunov
  demand-supply interface flux.

States are plain 1-D arrays: drho for the linear plant, rho for the
nonlinear one. A stepper takes the state with one ghost cell at each end,
in the same kind: Dirichlet upstream (valid while characteristics enter
from the left, guaranteed in free flow) and zero-gradient downstream.
apply_boundary alone writes that policy, refilling a buffer its caller
allocates once per march. Each stepper takes the grid and that extended
array, leaves it unchanged, and returns (new_values, interface_fluxes).
The steppers do arithmetic only and raise nothing: a caller owns the CFL
condition by taking dt from stable_dt, and run_simulation checks the
density bound after every step.
"""

from __future__ import annotations

import numpy as np

from .fundamental import critical_density, flux
from .params import Grid1D, TrafficParams
from .riccati import RiccatiProblem


class SolverError(RuntimeError):
    """Raised by run_simulation when a step leaves the density bound [0, rho_max]."""


def stable_dt(dz: float, wave_speed: float, cfl: float) -> float:
    """Step cfl * dz / wave_speed, stable while wave_speed bounds every |dq/drho|.

    Raises ValueError unless 0 < cfl <= 1.
    """
    if not 0.0 < cfl <= 1.0:
        raise ValueError(f"cfl must lie in (0, 1], got {cfl}")
    return cfl * dz / wave_speed


def apply_boundary(
    extended: np.ndarray, values: np.ndarray, upstream_value: float
) -> np.ndarray:
    """Refill extended, of size values.size + 2, in place and return it.

    It holds upstream_value in front, then the cells, then the last cell
    repeated. upstream_value is in the kind of values: a perturbation for
    the linear plant, an absolute density for the nonlinear one.
    """
    extended[0] = upstream_value
    extended[1:-1] = values
    extended[-1] = values[-1]
    return extended


def step_linear(
    grid: Grid1D,
    extended: np.ndarray,
    u_opt: np.ndarray,
    problem: RiccatiProblem,
    dt: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Upwind step of the perturbation transport with the control source.

    The update integrates d(drho)/dt = V d(drho)/dz + B0 u with the
    design model's coefficients V = problem.v_coef and
    B0 = problem.b0_coef. Transport is rightward (V < 0 in free flow), so
    the upwind flux at each interface takes the left value; the source
    uses u averaged from interfaces to cells. No conservation statement
    is made for the perturbation with source.
    """
    fluxes = -problem.v_coef * extended[:-1]
    source = problem.b0_coef * 0.5 * (u_opt[:-1] + u_opt[1:])
    new_values = (
        extended[1:-1] - (dt / grid.dz) * (fluxes[1:] - fluxes[:-1]) + dt * source
    )
    return new_values, fluxes


def godunov_interface_flux(
    rho_left: np.ndarray | float,
    rho_right: np.ndarray | float,
    b_interface: np.ndarray | float,
    params: TrafficParams,
) -> np.ndarray | float:
    """Godunov flux for the concave VSL flux: min(demand, supply).

    demand is the flux the left state can send (capped at the critical
    density), supply the flux the right state can absorb; one flux call
    takes both, stacked, and b_interface broadcasts over them.
    """
    rho_c = critical_density(params)
    capped = np.array((np.minimum(rho_left, rho_c), np.maximum(rho_right, rho_c)))
    q = flux(capped, b_interface, params)
    return np.minimum(q[0], q[1])


def step_nonlinear(
    grid: Grid1D,
    extended: np.ndarray,
    b_profile: np.ndarray,
    params: TrafficParams,
    dt: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Conservative Godunov step of the LWR equation with a VSL profile.

    rho_i <- rho_i - (dt/dz) (F_{i+1/2} - F_{i-1/2}); interior mass
    change therefore equals the boundary flux difference exactly.
    """
    fluxes = godunov_interface_flux(extended[:-1], extended[1:], b_profile, params)
    new_values = extended[1:-1] - (dt / grid.dz) * (fluxes[1:] - fluxes[:-1])
    return new_values, fluxes
