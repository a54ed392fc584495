"""Finite-volume steppers for the traffic density equations.

Two explicit first-order schemes share the grid and boundary plumbing:

- step_linear advects the density perturbation drho around the equilibrium
  (rho_0, b_0): d(drho)/dt = V d(drho)/dz + B0 u, with constant V < 0
  (rightward transport at speed |V|) and the control u = db/dz entering as
  a source term.
- step_nonlinear updates the conservation law d(rho)/dt + d(q)/dz = 0 with
  the VSL flux q = rho b u_max (1 - rho/rho_max), using the Godunov
  demand-supply interface flux.

Ghost cells carry the boundary data: Dirichlet upstream (valid while
characteristics enter from the left, guaranteed in free flow) and
zero-gradient downstream.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .fundamental import characteristic_speed, critical_density, flux
from .params import Grid1D, TrafficParams

KINDS = ("absolute", "perturbation")


class SolverError(RuntimeError):
    """Raised when a stepper precondition or a physical bound is violated."""


@dataclass(frozen=True)
class DensityField:
    """Cell-averaged density (or density perturbation) at one instant.

    values holds absolute density rho for kind "absolute" and the
    perturbation drho = rho - rho_0 for kind "perturbation", both in
    cars/m. Ghost values, when set, extend the field one cell beyond
    each end of the grid in the same kind.
    """

    values: np.ndarray
    kind: str
    time: float
    ghost_upstream: float | None = None
    ghost_downstream: float | None = None

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("values must be a non-empty 1-D array")
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.time < 0:
            raise ValueError("time must be non-negative")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def n_cells(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class StepResult:
    """One explicit update: the new field plus the interface fluxes used."""

    field: DensityField
    interface_fluxes: np.ndarray

    def __post_init__(self) -> None:
        fluxes = np.array(self.interface_fluxes, dtype=float)
        if fluxes.size != self.field.n_cells + 1:
            raise ValueError("need one interface flux per grid interface")
        fluxes.setflags(write=False)
        object.__setattr__(self, "interface_fluxes", fluxes)


def to_absolute(field: DensityField, params: TrafficParams) -> DensityField:
    """Shift a perturbation field by rho_0; absolute fields pass through."""
    if field.kind == "absolute":
        return field
    return DensityField(field.values + params.rho_0, "absolute", field.time)


def apply_boundary(
    field: DensityField,
    upstream_value: float,
    params: TrafficParams,
) -> DensityField:
    """Attach ghost cells: Dirichlet upstream, zero-gradient downstream.

    upstream_value is an absolute density; for perturbation fields it is
    converted to a perturbation by subtracting rho_0.
    """
    if not 0.0 <= upstream_value <= params.rho_max:
        raise SolverError(
            f"upstream boundary density {upstream_value} outside [0, {params.rho_max}]"
        )
    ghost_up = upstream_value
    if field.kind == "perturbation":
        ghost_up = upstream_value - params.rho_0
    return dataclasses.replace(
        field, ghost_upstream=ghost_up, ghost_downstream=float(field.values[-1])
    )


def _check_step_inputs(field: DensityField, kind: str, grid: Grid1D, dt: float) -> None:
    if field.kind != kind:
        raise SolverError(f"stepper needs a {kind} field, got {field.kind!r}")
    if field.n_cells != grid.n_cells:
        raise SolverError(
            f"grid mismatch: field has {field.n_cells} cells, grid has {grid.n_cells}"
        )
    if field.ghost_upstream is None or field.ghost_downstream is None:
        raise SolverError("ghost cells missing: call apply_boundary before stepping")
    if dt <= 0.0:
        raise SolverError("dt must be positive")


def step_linear(
    field: DensityField,
    u_opt: np.ndarray,
    grid: Grid1D,
    params: TrafficParams,
    dt: float,
) -> StepResult:
    """Upwind step of the perturbation transport with the control source.

    The update integrates d(drho)/dt = V d(drho)/dz + B0 u with the
    frozen coefficients V = -b_0 u_max (1 - 2 rho_0/rho_max) and
    B0 = -rho_0 u_max (1 - rho_0/rho_max). Transport is rightward
    (V < 0 in free flow), so the upwind flux at each interface takes the
    left value; the source uses u averaged from interfaces to cells. No
    conservation statement is made for the perturbation with source.
    """
    _check_step_inputs(field, "perturbation", grid, dt)
    u = np.asarray(u_opt, dtype=float)
    if u.size != grid.n_cells + 1:
        raise SolverError("u_opt must have one value per grid interface")
    speed = characteristic_speed(params.rho_0, params.b_0, params)
    b0_coef = -flux(params.rho_0, 1.0, params)
    if dt * speed > grid.dz * (1.0 + 1e-12):
        raise SolverError(
            f"CFL violation: dt={dt} exceeds dz/|V| = {grid.dz / speed}"
        )
    upwind = np.concatenate(([field.ghost_upstream], field.values))
    fluxes = speed * upwind
    source = b0_coef * 0.5 * (u[:-1] + u[1:])
    new_values = (
        field.values - (dt / grid.dz) * (fluxes[1:] - fluxes[:-1]) + dt * source
    )
    new_field = DensityField(new_values, "perturbation", field.time + dt)
    return StepResult(new_field, fluxes)


def godunov_interface_flux(
    rho_left: np.ndarray | float,
    rho_right: np.ndarray | float,
    b_interface: np.ndarray | float,
    params: TrafficParams,
) -> np.ndarray | float:
    """Godunov flux for the concave VSL flux: min(demand, supply).

    demand is the flux the left state can send (capped at the critical
    density), supply the flux the right state can absorb.
    """
    rho_c = critical_density(params)
    demand = flux(np.minimum(rho_left, rho_c), b_interface, params)
    supply = np.where(
        np.asarray(rho_right) > rho_c,
        flux(rho_right, b_interface, params),
        flux(rho_c, b_interface, params),
    )
    return np.minimum(demand, supply)


def step_nonlinear(
    field: DensityField,
    b_profile: np.ndarray,
    grid: Grid1D,
    params: TrafficParams,
    dt: float,
) -> StepResult:
    """Conservative Godunov step of the LWR equation with a VSL profile.

    rho_i <- rho_i - (dt/dz) (F_{i+1/2} - F_{i-1/2}); interior mass
    change therefore equals the boundary flux difference exactly.
    """
    _check_step_inputs(field, "absolute", grid, dt)
    b = np.asarray(b_profile, dtype=float)
    if b.size != grid.n_cells + 1:
        raise SolverError("b_profile must have one value per grid interface")
    rho_ext = np.concatenate(
        ([field.ghost_upstream], field.values, [field.ghost_downstream])
    )
    b_adjacent = np.concatenate(([b[0]], np.maximum(b[:-1], b[1:]), [b[-1]]))
    max_speed = np.max(np.abs(characteristic_speed(rho_ext, b_adjacent, params)))
    if max_speed > 0.0 and dt * max_speed > grid.dz * (1.0 + 1e-12):
        raise SolverError(
            f"CFL violation: dt={dt} exceeds dz/max|dq/drho| = {grid.dz / max_speed}"
        )
    fluxes = godunov_interface_flux(rho_ext[:-1], rho_ext[1:], b, params)
    new_values = field.values - (dt / grid.dz) * (fluxes[1:] - fluxes[:-1])
    tolerance = 1e-12 * params.rho_max
    if new_values.min() < -tolerance or new_values.max() > params.rho_max + tolerance:
        raise SolverError(
            f"density left [0, rho_max] after a step: min={new_values.min()}, "
            f"max={new_values.max()}"
        )
    new_values = np.clip(new_values, 0.0, params.rho_max)
    new_field = DensityField(new_values, "absolute", field.time + dt)
    return StepResult(new_field, fluxes)
