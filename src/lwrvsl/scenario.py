"""Case-study scenarios, closed-loop simulation, and summary metrics.

The reference scenario starts from a sinusoidal density bump,
rho(0, z) = rho_0 + A sin(pi z / L), and drives the upstream boundary
with a damped oscillation on a linear ramp,
rho(t, 0) = rho_0 + A_b exp(-kappa t) sin(pi t / P) + gamma t.
All amplitudes stay inside the free-flow band (0, rho_max / 2).

run_simulation closes the loop: at every step the current perturbation
field feeds the LQ control law and the chosen plant (linear
perturbation transport or nonlinear LWR) advances one explicit step.
The control integrates to a VSL profile after every nonlinear step, and
only at frame instants on the linear plant, whose stepper reads the
control alone. The run's RiccatiProblem is the LQ design model and, on
the linear plant, the plant itself: step_linear reads V and B0 from it.
The nonlinear plant reuses the linear feedback law on its live
perturbation rho - rho_0. The plant is chosen once per run: its state is
rho - base (base = rho_0 on the linear plant, 0 on the nonlinear one).

Scenario validates a run's inputs once, at entry, and derives the grid
from n_cells; q0_members does the same for a list of q0 values.
stable_dt fixes the step size, and the loop passes plain arrays and
checks only each step's density bound.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .params import (
    M_PER_KM, Grid1D, TrafficParams, make_grid, params_from_paper_units, require_positive,
)
from .riccati import (
    DEFAULT_B_CLAMP, assemble_problem, control_field, feedback_gain, integrate_vsl,
)
from .solvers import SolverError, apply_boundary, stable_dt, step_linear, step_nonlinear

MODELS = ("linear", "nonlinear")

# The reference setup, each value written once: reference_scenario, the
# run defaults and the config schema all read it. REFERENCE_PARAMS holds
# the params_from_paper_units arguments (cars/km, km/h, m, s).
REFERENCE_PARAMS = {
    "rho_max_per_km": 160.0,
    "u_max_kph": 115.0,
    "rho_0_per_km": 50.0,
    "road_length_m": 2000.0,
    "sim_time_s": 120.0,
    "b_0": 1.0,
}
REFERENCE_IC_AMPLITUDE = 10.0  # cars/km
REFERENCE_BC_OSC_AMPLITUDE = 5.0  # cars/km
REFERENCE_BC_OSC_PERIOD = 20.0  # s
REFERENCE_Q0 = 5e-5
REFERENCE_R0 = 1.0
REFERENCE_N_CELLS = 400
REFERENCE_CFL = 0.9
REFERENCE_CADENCE = 0.5  # s
REFERENCE_Q0_VALUES = (1e-6, 1e-5, 5e-5, 5e-4)
# regulation band: the car count counts as on target within 5% of rho_0 * L
TARGET_TOLERANCE = 0.05


@dataclass(frozen=True)
class Scenario:
    """A closed-loop experiment definition.

    Amplitude fields keep the boundary-data units they are quoted in
    (cars/km and seconds); conversion to SI happens where the profiles
    are evaluated. grid is derived: make_grid lays n_cells over the road
    of params, so the grid always covers the road the Riccati problem is
    posed on.
    """

    params: TrafficParams
    n_cells: int
    q0: float
    bc_decay_rate: float  # 1/s
    bc_growth_rate: float  # cars/km per s
    ic_amplitude: float  # cars/km
    bc_osc_amplitude: float  # cars/km
    bc_osc_period: float  # s
    r0: float
    control_enabled: bool
    model: str
    clamp: tuple[float, float]
    grid: Grid1D = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "grid", make_grid(self.params.road_length, self.n_cells))
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {self.model!r}")
        require_positive("q0", self.q0)
        require_positive("r0", self.r0)
        require_positive("bc_osc_period", self.bc_osc_period)
        for name in ("ic_amplitude", "bc_osc_amplitude", "bc_growth_rate", "bc_decay_rate"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.bc_decay_rate < 0.0:
            raise ValueError("bc_decay_rate must be non-negative")
        b_min, b_max = self.clamp
        if not 0.0 <= b_min < self.params.b_0 < b_max < math.inf:
            raise ValueError(
                "clamp bounds must be finite and straddle b_0 with a non-negative b_min: "
                f"need 0 <= {b_min} < {self.params.b_0} < {b_max} < inf"
            )
        self._check_free_flow()

    def _check_free_flow(self) -> None:
        # conservative bounds on the initial and boundary data
        p = self.params
        ic_amp = self.ic_amplitude / M_PER_KM
        bc_amp = abs(self.bc_osc_amplitude) / M_PER_KM
        growth = self.bc_growth_rate / M_PER_KM * p.sim_time
        low = min(p.rho_0 + min(ic_amp, 0.0), p.rho_0 - bc_amp + min(growth, 0.0))
        high = max(p.rho_0 + max(ic_amp, 0.0), p.rho_0 + bc_amp + max(growth, 0.0))
        if low <= 0.0 or high >= p.rho_max / 2.0:
            raise ValueError(
                "initial or boundary data leaves the free-flow band "
                f"(0, rho_max/2): bounds [{low}, {high}] vs (0, {p.rho_max / 2.0})"
            )


@dataclass(frozen=True)
class SimulationHistory:
    """Time-indexed record of one run, sampled at the output cadence.

    Each frame set is a read-only 2-D array with one row per entry of
    times. density_frames, of shape (frames, cells), hold the plant's
    native kind, cars/m per cell: the perturbation rho - rho_0 for the
    linear model, the absolute density for the nonlinear one
    (absolute_density converts them). vsl_frames hold the dimensionless b
    and control_frames db/dz, both of shape (frames, cells + 1), one
    column per interface; the writer derives the speed from density and
    b. inflow_cars and outflow_cars accumulate the time-integrated
    boundary interface fluxes of the solver. scenario, cfl and
    frame_interval are the inputs run_simulation was given, so the record
    alone says which run it holds. The frame matrices and the scenario
    are left out of the repr, which would otherwise print every cell of
    every frame.
    """

    times: np.ndarray
    density_frames: np.ndarray = dataclasses.field(repr=False)
    vsl_frames: np.ndarray = dataclasses.field(repr=False)
    control_frames: np.ndarray = dataclasses.field(repr=False)
    total_cars_series: np.ndarray
    inflow_cars: float
    outflow_cars: float
    scenario: Scenario = dataclasses.field(repr=False)
    cfl: float
    frame_interval: float

    def __post_init__(self) -> None:
        # read-only views, so that the run's matrices are not copied
        for name in ("times", "density_frames", "vsl_frames", "control_frames",
                     "total_cars_series"):
            view = np.asarray(getattr(self, name), dtype=float).view()
            view.setflags(write=False)
            object.__setattr__(self, name, view)
        n = self.times.size
        frame_sets = (self.density_frames, self.vsl_frames, self.control_frames)
        if self.total_cars_series.size != n or any(
            frames.ndim != 2 or len(frames) != n for frames in frame_sets
        ):
            raise ValueError("all frame sequences must share the length of times")


def boundary_ramp(
    bc_reading: str, road_length: float, scale: float = 1.0
) -> tuple[float, float]:
    """Decay rate (1/s) and growth rate (cars/km per s) of the upstream ramp.

    bc_reading selects how the ramp coefficients read the road length:
    "km" gives decay L_km * 1e-6 and growth scale/(4 L_km) cars/km/s
    (the reference, which produces the rising upstream density), "m"
    uses the length in meters, making both terms negligible over the run.
    """
    if bc_reading == "km":
        length_scale = road_length / M_PER_KM
    elif bc_reading == "m":
        length_scale = road_length
    else:
        raise ValueError(f"bc_reading must be 'km' or 'm', got {bc_reading!r}")
    return length_scale * 1e-6, scale / (4.0 * length_scale)


def reference_scenario(
    *,
    model: str = "linear",
    q0: float = REFERENCE_Q0,
    control_enabled: bool = True,
    n_cells: int = REFERENCE_N_CELLS,
    bc_reading: str = "km",
    amplitude_scale: float = 1.0,
    sim_time: float = REFERENCE_PARAMS["sim_time_s"],
) -> Scenario:
    """Build the reference scenario with the tabulated parameters.

    bc_reading is passed to boundary_ramp. amplitude_scale multiplies
    every perturbation amplitude, for linearization studies.
    """
    params = params_from_paper_units(**{**REFERENCE_PARAMS, "sim_time_s": sim_time})
    decay, growth = boundary_ramp(bc_reading, params.road_length, amplitude_scale)
    return Scenario(
        params=params,
        n_cells=n_cells,
        q0=q0,
        bc_decay_rate=decay,
        bc_growth_rate=growth,
        ic_amplitude=REFERENCE_IC_AMPLITUDE * amplitude_scale,
        bc_osc_amplitude=REFERENCE_BC_OSC_AMPLITUDE * amplitude_scale,
        bc_osc_period=REFERENCE_BC_OSC_PERIOD,
        r0=REFERENCE_R0,
        control_enabled=control_enabled,
        model=model,
        clamp=DEFAULT_B_CLAMP,
    )


def initial_condition(z: np.ndarray | float, scenario: Scenario) -> np.ndarray | float:
    """Initial density rho_0 + A sin(pi z / L) in cars/m."""
    p = scenario.params
    z_arr = np.asarray(z, dtype=float)
    if np.any(z_arr < 0.0) or np.any(z_arr > p.road_length):
        raise ValueError(f"position outside [0, {p.road_length}]")
    amplitude = scenario.ic_amplitude / M_PER_KM
    return p.rho_0 + amplitude * np.sin(np.pi * z_arr / p.road_length)


def upstream_boundary(t: np.ndarray | float, scenario: Scenario) -> np.ndarray | float:
    """Upstream density rho_0 + A_b exp(-kappa t) sin(pi t / P) + gamma t, cars/m.

    t is not checked; Scenario bounds the density for t in [0, sim_time].
    """
    osc_amp = scenario.bc_osc_amplitude / M_PER_KM
    growth = scenario.bc_growth_rate / M_PER_KM
    return (
        scenario.params.rho_0
        + osc_amp
        * np.exp(-scenario.bc_decay_rate * t)
        * np.sin(np.pi * t / scenario.bc_osc_period)
        + growth * t
    )


def total_cars(rho: np.ndarray, grid: Grid1D) -> float:
    """Spatial integral of the absolute density over the road: sum rho_i dz, in cars."""
    return float(np.sum(rho) * grid.dz)


def absolute_density(history: SimulationHistory) -> np.ndarray:
    """The run's absolute density in cars/m, one row per frame.

    Linear runs record rho - rho_0, so their frames are shifted by rho_0;
    nonlinear runs return the stored, read-only matrix.
    """
    if history.scenario.model == "linear":
        return history.density_frames + history.scenario.params.rho_0
    return history.density_frames


def target_cars(params: TrafficParams) -> float:
    """The regulation target: the equilibrium car count rho_0 * L."""
    return params.rho_0 * params.road_length


def time_to_target(history: SimulationHistory, target: float) -> float | None:
    """First recorded time from which total cars stays within TARGET_TOLERANCE*target.

    Returns None when the series never settles into the band through the
    end of the run.
    """
    within = np.abs(history.total_cars_series - target) <= TARGET_TOLERANCE * target
    if bool(within.all()):
        return float(history.times[0])
    bad = np.flatnonzero(~within)
    last_bad = int(bad[-1])
    if last_bad == within.size - 1:
        return None
    return float(history.times[last_bad + 1])


def mass_balance_defect(history: SimulationHistory) -> tuple[float, float]:
    """Car-count change minus net boundary inflow: (cars, relative to the start).

    The conservative nonlinear plant closes this to round-off.
    """
    totals = history.total_cars_series
    defect = totals[-1] - totals[0] - (history.inflow_cars - history.outflow_cars)
    return float(defect), float(abs(defect) / totals[0])


def _check_density(state: np.ndarray, base: float, t: float, scenario: Scenario) -> None:
    """Raise SolverError unless every density state + base lies in [0, rho_max]; NaN fails."""
    # rounding is monotone, so min(state) + base is the minimum of state + base
    low, high = state.min() + base, state.max() + base
    if not 0.0 <= low <= high <= scenario.params.rho_max:
        raise SolverError(
            f"density left [0, rho_max] in the {scenario.model} run at t={t}: "
            f"min={low}, max={high}"
        )


def run_simulation(
    scenario: Scenario,
    frame_interval: float = REFERENCE_CADENCE,
    cfl: float = REFERENCE_CFL,
) -> SimulationHistory:
    """Advance the chosen plant over [0, T] under quasi-static feedback.

    The run's RiccatiProblem is assembled once: it gives the feedback
    gain K0 at the interfaces (when control is on) and, on the linear
    plant, the coefficients V and B0 of the stepper. Per step:
    attach boundary ghosts at the current time, take one explicit step,
    stop with SolverError if the density left [0, rho_max], and recompute
    the control from the new perturbation field (when enabled); its VSL
    profile is integrated on every nonlinear step, and on the linear
    plant, which reads the control alone, only at frame instants. The
    step size is stable_dt on the worst-case wave speed b_cap * u_max
    (b_cap being the clamp ceiling when control is on, else b_0),
    shortened only to land exactly on frame instants. The frame instants,
    every frame_interval seconds and at T, are listed first; one row of
    density, VSL rate, control and total cars is filled at each.
    """
    require_positive("frame_interval", frame_interval)
    p = scenario.params
    grid = scenario.grid
    b_cap = scenario.clamp[1] if scenario.control_enabled else p.b_0
    dt_fixed = stable_dt(grid.dz, b_cap * p.u_max, cfl)
    linear = scenario.model == "linear"
    problem = assemble_problem(p, scenario.q0, scenario.r0)
    gain = feedback_gain(grid.interfaces, problem) if scenario.control_enabled else None
    # the plant's state is rho - base: the perturbation, or the absolute density
    base = p.rho_0 if linear else 0.0

    state = initial_condition(grid.cell_centers, scenario) - base

    zero_control = np.zeros(grid.n_cells + 1)
    base_profile = np.full(grid.n_cells + 1, p.b_0)

    def control(values: np.ndarray) -> np.ndarray:
        return zero_control if gain is None else control_field(values - (p.rho_0 - base), gain)

    def vsl_profile(u_opt: np.ndarray) -> np.ndarray:
        return base_profile if gain is None else integrate_vsl(u_opt, p.b_0, grid, scenario.clamp)

    # the frame instants: 0, then min(k * frame_interval, T) until T is reached
    times = [0.0]
    while times[-1] < p.sim_time - 1e-9:
        times.append(min(len(times) * frame_interval, p.sim_time))
    n_frames = len(times)
    density_frames = np.empty((n_frames, grid.n_cells))
    vsl_frames = np.empty((n_frames, grid.n_cells + 1))
    control_frames = np.empty((n_frames, grid.n_cells + 1))
    totals = np.empty(n_frames)
    inflow = 0.0
    outflow = 0.0

    u_opt = control(state)
    b_profile = vsl_profile(u_opt)
    t = 0.0
    for row, next_frame in enumerate(times):
        while t < next_frame:  # the step that reaches next_frame sets t to it exactly
            at_frame = t + dt_fixed >= next_frame - 1e-12
            dt = next_frame - t if at_frame else dt_fixed
            extended = apply_boundary(state, upstream_boundary(t, scenario) - base)
            if linear:
                state, fluxes = step_linear(grid, extended, u_opt, problem, dt)
            else:
                state, fluxes = step_nonlinear(grid, extended, b_profile, p, dt)
            inflow += dt * fluxes[0]
            outflow += dt * fluxes[-1]
            t = next_frame if at_frame else t + dt
            _check_density(state, base, t, scenario)
            # the control of the new state drives the next step and, at a frame, is
            # recorded; step_linear reads only u_opt, so its profile is needed at frames only
            u_opt = control(state)
            if not linear or at_frame:
                b_profile = vsl_profile(u_opt)
        density_frames[row] = state
        vsl_frames[row] = b_profile
        control_frames[row] = u_opt
        totals[row] = total_cars(state + base, grid)
    return SimulationHistory(
        times=np.array(times),
        density_frames=density_frames,
        vsl_frames=vsl_frames,
        control_frames=control_frames,
        total_cars_series=totals,
        inflow_cars=inflow,
        outflow_cars=outflow,
        scenario=scenario,
        cfl=cfl,
        frame_interval=frame_interval,
    )


def q0_label(q0: float) -> str:
    """The name of a q0 in artifact paths, column headers and summary keys."""
    return f"{q0:g}"


def q0_members(scenario: Scenario, q0_list: list[float]) -> list[Scenario]:
    """One Scenario per q0 of a sweep or curve family, all checked up front.

    Raises ValueError for an empty list, for a q0 that Scenario rejects,
    and for two q0 values with the same q0_label, whose artifacts would
    overwrite each other.
    """
    if len(q0_list) == 0:
        raise ValueError("a non-empty q0 list is required")
    members = [dataclasses.replace(scenario, q0=q0) for q0 in q0_list]
    labels = [q0_label(q0) for q0 in q0_list]
    if len(set(labels)) < len(labels):
        raise ValueError(f"q0 values {list(q0_list)} share labels {labels}; outputs collide")
    return members


def sweep_q0(
    scenario: Scenario,
    q0_list: list[float],
    frame_interval: float = REFERENCE_CADENCE,
    cfl: float = REFERENCE_CFL,
) -> tuple[list[SimulationHistory], dict[str, str]]:
    """Run one simulation per q0, identical otherwise.

    q0_members checks the list before any run starts. A member whose run
    raises SolverError or ValueError is recorded under its q0_label with
    its message, and the other members run as before. Returns the
    histories of the members that ran, in list order, and the failures.
    """
    histories = []
    failures: dict[str, str] = {}
    for member in q0_members(scenario, q0_list):
        try:
            histories.append(run_simulation(member, frame_interval, cfl))
        except (SolverError, ValueError) as exc:
            failures[q0_label(member.q0)] = str(exc)
    return histories, failures
