"""Greenshield equilibrium relations, with and without a variable speed limit.

The VSL rate b scales the free-flow speed, so the speed-density relation is
u(rho) = b * u_max * (1 - rho/rho_max) and the flux q = rho * u stays a
concave parabola with its maximum at the critical density rho_max/2 for
every b >= 0.

Each relation is written once. equilibrium_speed, vsl_speed and flux
allocate their result, or, given out, compute their whole chain in out
and return it: out takes the broadcast shape of the arguments and must
not overlap rho or b, as the chain overwrites it before it reads them for
the last time. The nonlinear step writes its free-flow fluxes so, into a
buffer its run allocates once. The relations do not check their
arguments, which Scenario and the density check of run_simulation keep in
range (rho in [0, rho_max], b >= 0).

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


def equilibrium_speed(
    rho: ArrayLike, params: TrafficParams, out: np.ndarray | None = None
) -> ArrayLike:
    """Greenshield speed u_max * (1 - rho/rho_max), in out if given."""
    speed = np.divide(rho, params.rho_max, out)
    speed = np.subtract(_ONE, speed, out)
    return np.multiply(params.u_max, speed, out)


def vsl_speed(
    rho: ArrayLike, b: ArrayLike, params: TrafficParams, out: np.ndarray | None = None
) -> ArrayLike:
    """Speed under a VSL rate b: b * u_max * (1 - rho/rho_max), in out if given."""
    return np.multiply(b, equilibrium_speed(rho, params, out), out)


def flux(
    rho: ArrayLike, b: ArrayLike, params: TrafficParams, out: np.ndarray | None = None
) -> ArrayLike:
    """Traffic flow q = rho * u [cars/s], in out if given; zero at rho = 0 and rho_max."""
    return np.multiply(rho, vsl_speed(rho, b, params, out), out)


def characteristic_speed(rho: ArrayLike, b: ArrayLike, params: TrafficParams) -> ArrayLike:
    """Kinematic wave speed dq/drho = b * u_max * (1 - 2 rho/rho_max).

    Positive in free flow (rho < rho_max/2), negative when congested.
    """
    return b * params.u_max * (1.0 - 2.0 * rho / params.rho_max)


def critical_density(params: TrafficParams) -> float:
    """Density of maximum flow: rho_max / 2."""
    return params.rho_max / 2.0
