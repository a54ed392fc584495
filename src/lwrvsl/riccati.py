"""Closed-form LQ state feedback for the linearized traffic plant.

Linearizing the VSL-controlled LWR model around (rho_0, b_0) gives
d(drho)/dt = V d(drho)/dz + B0 u with u = db/dz and coefficients

    V  = -b_0 u_max (1 - 2 rho_0/rho_max)   (negative in free flow)
    B0 = -rho_0 u_max (1 - rho_0/rho_max)

Minimizing the quadratic cost with state weight Q0 and control weight R0
reduces, for this scalar plant, to the Riccati boundary-value problem

    V dPhi/dz = Q0 - B0^2 Phi^2 / R0,   Phi(L) = 0,

whose solution is

    Phi(z) = sqrt(Q0 R0) (E - 1) / (B0 (E + 1)),
    E      = exp(2 B0 sqrt(Q0 / R0) (z - L) / V),

with the feedback u_opt(z) = K0(z) drho(z), K0 = -B0 Phi / R0. A
fixed-step RK4 integrator of the same boundary-value problem is kept as
an independent numerical oracle for the closed form.

assemble_problem is the one place V and B0 are computed: a run's
RiccatiProblem designs the gain and is also the linear plant that
step_linear advances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fundamental import characteristic_speed, flux
from .params import Grid1D, TrafficParams

DEFAULT_B_CLAMP = (0.1, 2.0)


@dataclass(frozen=True)
class RiccatiProblem:
    """Scalar coefficients of the LQ problem on [0, length].

    The fields are not checked here. assemble_problem builds them from a
    TrafficParams, whose free-flow equilibrium gives V < 0, B0 < 0 and
    length > 0, and from weights that Scenario has checked (q0, r0 > 0).
    """

    v_coef: float
    b0_coef: float
    q0: float
    r0: float
    length: float


def assemble_problem(params: TrafficParams, q0: float, r0: float = 1.0) -> RiccatiProblem:
    """Build the scalar LQ coefficients from the traffic equilibrium."""
    return RiccatiProblem(
        v_coef=-characteristic_speed(params.rho_0, params.b_0, params),
        b0_coef=-flux(params.rho_0, 1.0, params),
        q0=q0,
        r0=r0,
        length=params.road_length,
    )


def phi_closed_form(z: np.ndarray | float, problem: RiccatiProblem) -> np.ndarray | float:
    """Evaluate the closed-form Riccati solution Phi(z).

    Phi(L) = 0 exactly (the numerator vanishes bit-exactly at z = L),
    Phi >= 0 on [0, L], and Phi is non-increasing in z.
    """
    rate = 2.0 * problem.b0_coef * math.sqrt(problem.q0 / problem.r0)
    e = np.exp(rate * (z - problem.length) / problem.v_coef)
    return math.sqrt(problem.q0 * problem.r0) * (1.0 - e) / (-problem.b0_coef * (e + 1.0))


def phi_numeric_oracle(problem: RiccatiProblem, n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the Riccati boundary-value problem backward from z = L.

    Fixed-step classical RK4 on V dPhi/dz = Q0 - B0^2 Phi^2 / R0 with
    Phi(L) = 0, marching from L down to 0. Returns (z, phi) on an
    n_steps + 1 point uniform grid. Serves as an independent oracle for
    phi_closed_form and handles general r0.
    """
    if n_steps < 100:
        raise ValueError("n_steps must be at least 100")
    gain_sq = problem.b0_coef**2 / problem.r0
    q0, v = problem.q0, problem.v_coef
    h = problem.length / n_steps
    phi = np.empty(n_steps + 1)
    phi[n_steps] = 0.0
    p = 0.0
    for i in range(n_steps, 0, -1):  # slopes inline: a call per stage cost ~30% of the loop
        k1 = (q0 - gain_sq * p * p) / v
        a = p - 0.5 * h * k1
        k2 = (q0 - gain_sq * a * a) / v
        a = p - 0.5 * h * k2
        k3 = (q0 - gain_sq * a * a) / v
        a = p - h * k3
        k4 = (q0 - gain_sq * a * a) / v
        p = p - (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        phi[i - 1] = p
    z = np.linspace(0.0, problem.length, n_steps + 1)
    return z, phi


def feedback_gain(z: np.ndarray | float, problem: RiccatiProblem) -> np.ndarray | float:
    """State feedback gain K0(z) = -B0 Phi(z) / R0; K0 >= 0, K0(L) = 0."""
    return -problem.b0_coef * phi_closed_form(z, problem) / problem.r0


def _interface_state(values: np.ndarray) -> np.ndarray:
    # interior interfaces average the adjacent cells; boundary interfaces are one-sided
    return np.concatenate(
        ([values[0]], 0.5 * (values[:-1] + values[1:]), [values[-1]])
    )


def control_field(delta_rho: np.ndarray, gain: np.ndarray) -> np.ndarray:
    """Per-interface control u_opt = K0(z) drho(z) from the cell perturbations.

    gain is feedback_gain at the grid interfaces, which a run computes once.
    """
    return gain * _interface_state(delta_rho)


def control_field_explicit(
    delta_rho: np.ndarray, problem: RiccatiProblem, grid: Grid1D
) -> np.ndarray:
    """Per-interface control from the explicit feedback expression.

    Evaluates u_opt = -sqrt(Q0 / R0) (E - 1)/(E + 1) drho directly,
    without composing feedback_gain with phi_closed_form; kept as a
    second, independent code path for cross-checking.
    """
    state = _interface_state(delta_rho)
    root_ratio = math.sqrt(problem.q0 / problem.r0)
    e = np.exp(
        2.0
        * problem.b0_coef
        * root_ratio
        * (grid.interfaces - problem.length)
        / problem.v_coef
    )
    return root_ratio * (1.0 - e) / (e + 1.0) * state


def integrate_vsl(
    u_opt: np.ndarray,
    b0: float,
    grid: Grid1D,
    clamp: tuple[float, float] = DEFAULT_B_CLAMP,
) -> np.ndarray:
    """Integrate u = db/dz into a speed-limit profile anchored at b(0) = b0.

    Trapezoidal cumulative integral over the interfaces, then an
    elementwise clamp to [b_min, b_max], which must straddle b0 (Scenario
    checks this at entry). Zero control therefore reproduces the
    uncontrolled profile b = b0 exactly. The returned per-interface
    profile is read-only.
    """
    increments = 0.5 * grid.dz * (u_opt[:-1] + u_opt[1:])
    profile = b0 + np.concatenate(([0.0], np.cumsum(increments)))
    profile = profile.clip(*clamp)
    profile.setflags(write=False)
    return profile
