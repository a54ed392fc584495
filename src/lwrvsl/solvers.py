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
nonlinear one. A stepper reads the state with one ghost cell at each end,
in the same kind: Dirichlet upstream (valid while characteristics enter
from the left, guaranteed in free flow) and zero-gradient downstream.
The state lives in a Ghosted buffer of n + 2 values, whose views are
built once; apply_boundary alone writes that policy, into the two ghosts
of the buffer in place. A stepper takes the grid, that buffer, the run's
coefficients (its constants and views of its control, profile, flux and
scratch buffers, built once per run by linear_coefficients or
nonlinear_coefficients) and dt. It computes every interface flux from
the buffer first, then updates the cells in place, and returns the
fluxes in the run's flux buffer, which the next step overwrites; a step
allocates nothing, bar a nonlinear one above the free-flow margin.
run_simulation steps one buffer per run. The steppers raise nothing: a
caller owns the CFL condition by taking dt from stable_dt, and
run_simulation checks the density bound after every step. The in-place
ufunc calls on a step's path (here, in fundamental's flux, and in
riccati's control and VSL bodies) pass out positionally, which numpy
parses faster than the keyword, and most scalars they read are 0-d
arrays, which numpy does not convert on every call as it does a Python
float.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import NamedTuple

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


class Ghosted(NamedTuple):
    """A ghost-extended buffer of n + 2 values and the views of it a step reads.

    values holds the upstream ghost, the n cells and the downstream ghost;
    left is values[:-1], the left state of every interface, and cells is
    values[1:-1]. ghosted builds one; a run steps its one in place.
    """

    values: np.ndarray
    left: np.ndarray
    cells: np.ndarray


def ghosted(n_cells: int) -> Ghosted:
    """An unfilled ghost-extended buffer for n_cells cells, with its views."""
    values = np.empty(n_cells + 2)
    return Ghosted(values, values[:-1], values[1:-1])


def apply_boundary(extended: np.ndarray, upstream_value: float) -> np.ndarray:
    """Write the two ghosts of extended in place around its cells, and return it.

    upstream_value goes in front and the last cell is repeated behind.
    upstream_value is in the kind of the cells: a perturbation for the
    linear plant, an absolute density for the nonlinear one.
    """
    extended[0] = upstream_value
    extended[-1] = extended[-2]
    return extended


@dataclass(frozen=True, slots=True)
class LinearCoefficients:
    """What step_linear reads on every step of one run; built by linear_coefficients.

    neg_v = -V and half_b0 = B0 / 2 of the run's RiccatiProblem, as 0-d
    arrays; dt_fixed, the run's fixed step, with dt and dt_dz = dt / dz of
    it as 0-d arrays; u_left and u_right are the halves of the run's control
    buffer, fluxes the run's interface-flux buffer with its halves, and
    scratch an array of n values for the flux difference and the source.
    """

    neg_v: np.ndarray
    half_b0: np.ndarray
    dt_fixed: float
    dt: np.ndarray
    dt_dz: np.ndarray
    u_left: np.ndarray
    u_right: np.ndarray
    fluxes: np.ndarray
    flux_left: np.ndarray
    flux_right: np.ndarray
    scratch: np.ndarray


def linear_coefficients(
    problem: RiccatiProblem, u_opt: np.ndarray, grid: Grid1D, dt_fixed: float
) -> LinearCoefficients:
    """The linear plant's per-run constants and views, for the control buffer u_opt."""
    fluxes = np.empty(grid.n_cells + 1)
    return LinearCoefficients(
        np.array(-problem.v_coef), np.array(problem.b0_coef * 0.5),
        dt_fixed, np.array(dt_fixed), np.array(dt_fixed / grid.dz), u_opt[:-1], u_opt[1:],
        fluxes, fluxes[:-1], fluxes[1:], np.empty(grid.n_cells),
    )


def step_linear(
    grid: Grid1D, extended: Ghosted, coefficients: LinearCoefficients, dt: float
) -> np.ndarray:
    """Upwind step of the perturbation transport with the control source, in place.

    The update integrates d(drho)/dt = V d(drho)/dz + B0 u with the
    design model's coefficients V and B0. Transport is rightward (V < 0
    in free flow), so the upwind flux at each interface takes the left
    value; the source uses u averaged from interfaces to cells. No
    conservation statement is made for the perturbation with source. The
    interface fluxes are computed from extended before its cells take the
    new state, and are returned in the run's flux buffer, which the next
    step overwrites. A dt equal to coefficients.dt_fixed reads the 0-d dt
    and dt_dz of the coefficients; any other dt is converted here, to the
    same values.
    """
    c = coefficients
    if dt == c.dt_fixed:
        dt, dt_dz = c.dt, c.dt_dz
    else:
        dt_dz = dt / grid.dz
    fluxes = np.multiply(c.neg_v, extended.left, c.fluxes)
    cells, scratch = extended.cells, c.scratch
    np.subtract(c.flux_right, c.flux_left, scratch)
    np.multiply(scratch, dt_dz, scratch)
    np.subtract(cells, scratch, cells)
    np.add(c.u_left, c.u_right, scratch)
    np.multiply(scratch, c.half_b0, scratch)
    np.multiply(scratch, dt, scratch)
    np.add(cells, scratch, cells)
    return fluxes


def godunov_interface_flux(
    rho_left: np.ndarray | float,
    rho_right: np.ndarray | float,
    b_interface: np.ndarray | float,
    params: TrafficParams,
    out: np.ndarray | None = None,
) -> np.ndarray | float:
    """Godunov flux for the concave VSL flux: min(demand, supply).

    demand is the flux the left state can send (capped at the critical
    density), supply the flux the right state can absorb; one flux call
    takes both, stacked, and b_interface broadcasts over them. The flux
    is written into out if given, and returned.
    """
    rho_c = critical_density(params)
    capped = np.array((np.minimum(rho_left, rho_c), np.maximum(rho_right, rho_c)))
    q = flux(capped, b_interface, params)
    return np.minimum(q[0], q[1], out=out)


@dataclass(frozen=True, slots=True)
class NonlinearCoefficients:
    """What step_nonlinear reads on every step of one run; built by nonlinear_coefficients.

    params, with the rho_max and u_max that flux reads as 0-d arrays; the
    run's VSL profile buffer b_profile; free_flow_limit = FREE_FLOW_MARGIN
    * rho_c; dt_fixed, the run's fixed step, with dt_dz = dt_fixed / dz as
    a 0-d array; fluxes the run's interface-flux buffer with its halves, and
    scratch an array of n values for the flux difference.
    """

    params: TrafficParams
    b_profile: np.ndarray
    free_flow_limit: float
    dt_fixed: float
    dt_dz: np.ndarray
    fluxes: np.ndarray
    flux_left: np.ndarray
    flux_right: np.ndarray
    scratch: np.ndarray


def nonlinear_coefficients(
    params: TrafficParams, b_profile: np.ndarray, grid: Grid1D, dt_fixed: float
) -> NonlinearCoefficients:
    """The nonlinear plant's per-run constants and views, for the VSL profile buffer b_profile."""
    limit = FREE_FLOW_MARGIN * critical_density(params)
    fluxes = np.empty(grid.n_cells + 1)
    flux_params = dataclasses.replace(
        params, rho_max=np.array(params.rho_max), u_max=np.array(params.u_max)
    )
    return NonlinearCoefficients(
        flux_params, b_profile, limit, dt_fixed, np.array(dt_fixed / grid.dz),
        fluxes, fluxes[:-1], fluxes[1:], np.empty(grid.n_cells),
    )


def step_nonlinear(
    grid: Grid1D,
    extended: Ghosted,
    coefficients: NonlinearCoefficients,
    dt: float,
    peak: float,
) -> np.ndarray:
    """Conservative Godunov step of the LWR equation with a VSL profile, in place.

    rho_i <- rho_i - (dt/dz) (F_{i+1/2} - F_{i-1/2}); interior mass
    change therefore equals the boundary flux difference exactly. peak is
    the largest cell of extended, or NaN if a cell is NaN; run_simulation's
    density check finds it. The downstream ghost repeats the last cell, so
    when peak and the upstream ghost are both at most FREE_FLOW_MARGIN *
    rho_c, the flux is evaluated on the left states alone, bitwise equal
    to the Godunov flux there, and allocates nothing; above the margin, or
    on a NaN, godunov_interface_flux runs. The interface fluxes are
    computed from extended before its cells take the new state, and are
    returned in the run's flux buffer, which the next step overwrites. dt
    is as for step_linear.
    """
    c = coefficients
    dt_dz = c.dt_dz if dt == c.dt_fixed else dt / grid.dz
    if peak <= c.free_flow_limit and extended.values.item(0) <= c.free_flow_limit:
        fluxes = flux(extended.left, c.b_profile, c.params, c.fluxes)
    else:
        fluxes = godunov_interface_flux(
            extended.left, extended.values[1:], c.b_profile, c.params, c.fluxes
        )
    cells, scratch = extended.cells, c.scratch
    np.subtract(c.flux_right, c.flux_left, scratch)
    np.multiply(scratch, dt_dz, scratch)
    np.subtract(cells, scratch, cells)
    return fluxes
