"""Finite-volume steppers for the traffic density equations.

Two explicit first-order schemes share the grid and boundary plumbing:

- step_linear advects the density perturbation drho around the equilibrium
  (rho_0, b_0): d(drho)/dt = V d(drho)/dz + B0 u, with constant V < 0
  (rightward transport at speed |V|) and the control u = db/dz entering as
  a source term. V and B0 are read from the run's RiccatiProblem, so the
  linear plant is exactly the model the LQ gain is designed on.
- step_nonlinear updates the conservation law d(rho)/dt + d(q)/dz = 0 with
  the VSL flux q = rho b u_max (1 - rho/rho_max), using the Godunov
  demand-supply interface flux, which is the left state's demand alone
  while every value lies at or below FREE_FLOW_MARGIN * rho_c.

States are plain 1-D arrays: drho for the linear plant, rho for the
nonlinear one. A stepper takes the state with one ghost cell at each end,
in the same kind: Dirichlet upstream (valid while characteristics enter
from the left, guaranteed in free flow) and zero-gradient downstream.
apply_boundary alone writes that policy, refilling a buffer its caller
allocates once per march. Each stepper takes the grid and that extended
array, leaves it unchanged, and returns (new_values, interface_fluxes).
The steppers raise nothing: a caller owns the CFL condition by taking dt
from stable_dt, and run_simulation checks the density bound after every
step. The in-place ufunc calls on a step's path (here, and in riccati's
control_field and integrate_vsl) pass out positionally, which numpy
parses faster than the keyword.
"""

from __future__ import annotations

import numpy as np

from .fundamental import critical_density, flux
from .params import Grid1D, TrafficParams
from .riccati import RiccatiProblem

# In free flow, rho <= rho_c on both sides, the Godunov flux min(demand, supply) is
# the demand q(rho_left), as supply is the capacity q(rho_c). The rounded q is not
# monotone within a few ulps of rho_c, so step_nonlinear takes the demand alone only
# at or below this fraction of rho_c: there q(rho) <= (1 - 1e-4) q(rho_c), a gap far
# wider than the rounding of either value.
FREE_FLOW_MARGIN = 0.99


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
    fluxes = np.multiply(-problem.v_coef, extended[:-1])
    new_values = np.subtract(fluxes[1:], fluxes[:-1])
    np.multiply(new_values, dt / grid.dz, new_values)
    np.subtract(extended[1:-1], new_values, new_values)
    source = np.add(u_opt[:-1], u_opt[1:])
    np.multiply(source, problem.b0_coef * 0.5, source)
    np.multiply(source, dt, source)
    np.add(new_values, source, new_values)
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
    change therefore equals the boundary flux difference exactly. When
    every value of extended is at most FREE_FLOW_MARGIN * rho_c, the flux
    is evaluated on the left states alone, bitwise equal to the Godunov
    flux there; above the margin, or on a NaN, godunov_interface_flux runs.
    """
    left = extended[:-1]
    # argmax finds the largest value, or the first NaN, in a fraction of a reduction's time
    if extended.item(extended.argmax()) <= FREE_FLOW_MARGIN * critical_density(params):
        fluxes = flux(left, b_profile, params)
    else:
        fluxes = godunov_interface_flux(left, extended[1:], b_profile, params)
    new_values = np.subtract(fluxes[1:], fluxes[:-1])
    np.multiply(new_values, dt / grid.dz, new_values)
    return np.subtract(extended[1:-1], new_values, new_values), fluxes
