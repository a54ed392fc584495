"""Greenshield equilibrium relations, with and without a variable speed limit.

The VSL rate b scales the free-flow speed, so the speed-density relation is
u(rho) = b * u_max * (1 - rho/rho_max) and the flux q = rho * u stays a
concave parabola with its maximum at the critical density rho_max/2 for
every b >= 0.

Each relation is written once and allocates its result. The relations do
not check their arguments, which Scenario and the density check of
run_simulation keep in range (rho in [0, rho_max], b >= 0).

Called with Python floats, equilibrium_speed, vsl_speed and flux return
np.float64, since they go through the 0-d array _ONE, while
characteristic_speed returns a float. Scalar callers that need a float
convert, as assemble_problem does with float(flux(...)).
"""

from __future__ import annotations

import numpy as np

from .params import TrafficParams

ArrayLike = float | np.ndarray
# 1.0 as a 0-d array: numpy converts a Python float operand on every call, and the
# flux runs on every nonlinear step
_ONE = np.array(1.0)


def equilibrium_speed(rho: ArrayLike, params: TrafficParams) -> ArrayLike:
    """Greenshield speed u_max * (1 - rho/rho_max)."""
    return params.u_max * (_ONE - rho / params.rho_max)


def vsl_speed(rho: ArrayLike, b: ArrayLike, params: TrafficParams) -> ArrayLike:
    """Speed under a VSL rate b: b * u_max * (1 - rho/rho_max)."""
    return b * equilibrium_speed(rho, params)


def flux(rho: ArrayLike, b: ArrayLike, params: TrafficParams) -> ArrayLike:
    """Traffic flow q = rho * u [cars/s]; zero at rho = 0 and rho_max."""
    return rho * vsl_speed(rho, b, params)


def characteristic_speed(rho: ArrayLike, b: ArrayLike, params: TrafficParams) -> ArrayLike:
    """Kinematic wave speed dq/drho = b * u_max * (1 - 2 rho/rho_max).

    Positive in free flow (rho < rho_max/2), negative when congested.
    """
    return b * params.u_max * (1.0 - 2.0 * rho / params.rho_max)


def critical_density(params: TrafficParams) -> float:
    """Density of maximum flow: rho_max / 2."""
    return params.rho_max / 2.0
