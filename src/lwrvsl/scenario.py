"""Case-study scenarios, closed-loop simulation, and summary metrics.

The reference scenario starts from a sinusoidal density bump,
rho(0, z) = rho_0 + A sin(pi z / L), and drives the upstream boundary
with a damped oscillation on a linear ramp,
rho(t, 0) = rho_0 + A_b exp(-kappa t) sin(pi t / P) + gamma t.
All amplitudes stay inside the free-flow band (0, rho_max / 2).

run_simulation closes the loop: at every step the current perturbation
field feeds the LQ control law and the chosen plant (linear
perturbation transport or nonlinear LWR) advances one explicit step.
The run's RiccatiProblem is the LQ design model, and the nonlinear plant
reuses its feedback law on its live perturbation rho - rho_0. Each run
records rho on both plants. The plant is chosen once per run, before
run_simulation's step loop, where what differs between the plants is
spelled out.

Scenario validates a run's inputs once, at entry, and derives the grid
from n_cells; q0_members does the same for a list of q0 values.
stable_dt fixes the step size, and run_simulation refuses a run whose
frames or cell updates exceed MAX_FRAME_VALUES or MAX_CELL_UPDATES
before it builds anything. The loop checks only each step's density
bound, on Python floats. The run marches one flat list of steps, handed
out STEP_BLOCK at a time as plain lists of start times, dts, end times
and the frame row each step lands on, if any; the loop evaluates
upstream_boundary once over each block's start times. Every step writes
into arrays the run allocates once: it reads one of two ghost-extended
buffers, whose two ghosts apply_boundary writes, and the stepper writes
the new state and the interface fluxes into the cells of the other and
the run's flux buffer; the control and, on the nonlinear plant, the VSL
profile are refreshed by bind_control_field and bind_integrate_vsl
calls, bound once per run to the views of the run's buffers. A linear
step, and a nonlinear one in free flow, allocate nothing and slice
nothing. After a step that lands on a frame row the loop copies the
state and the control into it; after the loop one call each derives
the absolute density, the VSL frames and the car counts.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .params import (
    M_PER_KM, MAX_CELL_UPDATES, MAX_FRAME_VALUES, Grid1D, TrafficParams, make_grid,
    params_from_paper_units, require_positive,
)
from .riccati import (
    DEFAULT_B_CLAMP, assemble_problem, bind_control_field, bind_integrate_vsl, feedback_gain,
    integrate_vsl,
)
from .solvers import (
    Ghosted, SolverError, apply_boundary, ghosted, linear_coefficients, nonlinear_coefficients,
    stable_dt, step_linear, step_nonlinear,
)

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
# the steps run_simulation lists, with their boundary values, at a time
STEP_BLOCK = 4096


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
    times. density_frames, of shape (frames, cells), hold the absolute
    density rho in cars/m per cell on both plants. vsl_frames hold the
    dimensionless b and control_frames db/dz, both of shape (frames,
    cells + 1), one column per interface; the writer derives the speed
    from density and b. inflow_cars and outflow_cars accumulate the
    time-integrated boundary interface fluxes of the solver. scenario,
    cfl and frame_interval are the inputs run_simulation was given, so
    the record alone says which run it holds. The frame matrices and the
    scenario are left out of the repr, which would otherwise print every
    cell of every frame.
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


def boundary_ramp(road_length: float, scale: float = 1.0) -> tuple[float, float]:
    """Decay rate (1/s) and growth rate (cars/km per s) of the upstream ramp.

    With the road length L_km in km: decay L_km * 1e-6 and growth
    scale/(4 L_km), the reference ramp that makes the upstream density rise.
    """
    length_km = road_length / M_PER_KM
    return length_km * 1e-6, scale / (4.0 * length_km)


def reference_scenario(
    *,
    model: str = "linear",
    q0: float = REFERENCE_Q0,
    control_enabled: bool = True,
    n_cells: int = REFERENCE_N_CELLS,
    amplitude_scale: float = 1.0,
    sim_time: float = REFERENCE_PARAMS["sim_time_s"],
) -> Scenario:
    """Build the reference scenario with the tabulated parameters.

    amplitude_scale multiplies every perturbation amplitude, the ramp's
    growth rate included, for linearization studies.
    """
    params = params_from_paper_units(**{**REFERENCE_PARAMS, "sim_time_s": sim_time})
    decay, growth = boundary_ramp(params.road_length, amplitude_scale)
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

    t is a time or an array of times, and is not checked; Scenario bounds
    the density for t in [0, sim_time]. numpy evaluates exp and sin per
    element, so an array of times gives, bitwise, the value of each time
    on its own.
    """
    osc_amp = scenario.bc_osc_amplitude / M_PER_KM
    growth = scenario.bc_growth_rate / M_PER_KM
    decay = np.exp(-scenario.bc_decay_rate * t)
    wave = np.sin(np.pi * t / scenario.bc_osc_period)
    return scenario.params.rho_0 + osc_amp * decay * wave + growth * t


def total_cars(rho: np.ndarray, grid: Grid1D) -> np.ndarray | float:
    """Spatial integral of the absolute density over the road: sum rho_i dz, in cars.

    The sum runs along the last axis, so a (frames, cells) matrix gives
    each row's count bitwise as its own 1-D call does.
    """
    return np.add.reduce(rho, axis=-1) * grid.dz


def target_cars(params: TrafficParams) -> float:
    """The regulation target: the equilibrium car count rho_0 * L."""
    return params.rho_0 * params.road_length


def time_to_target(times: np.ndarray, series: np.ndarray, target: float) -> float | None:
    """First of times from which the car-count series stays within TARGET_TOLERANCE*target.

    series holds one total per entry of times, as a run's
    total_cars_series does. Returns None when the series never settles
    into the band through the end of the run.
    """
    within = np.abs(series - target) <= TARGET_TOLERANCE * target
    if bool(within.all()):
        return float(times[0])
    bad = np.flatnonzero(~within)
    last_bad = int(bad[-1])
    if last_bad == within.size - 1:
        return None
    return float(times[last_bad + 1])


def mass_balance_defect(history: SimulationHistory) -> tuple[float, float]:
    """Car-count change minus net boundary inflow: (cars, relative to the start).

    The conservative nonlinear plant closes this to round-off.
    """
    totals = history.total_cars_series
    defect = totals[-1] - totals[0] - (history.inflow_cars - history.outflow_cars)
    return float(defect), float(abs(defect) / totals[0])


def _check_density(state: np.ndarray, base: float, t: float, scenario: Scenario) -> float:
    """Raise SolverError unless every density state + base lies in [0, rho_max]; NaN fails.

    Returns the largest density, max(state) + base.
    """
    # rounding is monotone, so min(state) + base is the minimum of state + base. argmin
    # and argmax find the first NaN, if any, and take a fraction of a reduction's time
    low = state.item(state.argmin()) + base
    high = state.item(state.argmax()) + base
    if not 0.0 <= low <= high <= scenario.params.rho_max:
        raise SolverError(
            f"density left [0, rho_max] in the {scenario.model} run at t={t}: "
            f"min={low}, max={high}"
        )
    return high


def _step_blocks(
    times: list[float], dt_fixed: float
) -> Iterator[tuple[list[float], list[float], list[float], list[int | None]]]:
    """The steps of a run in the float arithmetic of a step-by-step march.

    A step starts at the end of the one before and takes dt_fixed, but the
    step that reaches a frame instant of times is cut to land on it
    exactly. Yields the steps in order, at most STEP_BLOCK at a time, so
    that what a run holds of its schedule is bounded whatever its step
    count: each block is the lists (starts, dts, ends, rows) of its steps,
    where rows[k] is the row of times that step k lands on, else None.
    Row 0, the initial state, is reached by no step.
    """
    starts: list[float] = []
    dts: list[float] = []
    ends: list[float] = []
    rows: list[int | None] = []
    t = 0.0
    for row, next_frame in enumerate(times):
        while t < next_frame:
            if len(starts) == STEP_BLOCK:
                yield starts, dts, ends, rows
                starts, dts, ends, rows = [], [], [], []
            at_frame = t + dt_fixed >= next_frame - 1e-12
            dt = next_frame - t if at_frame else dt_fixed
            starts.append(t)
            dts.append(dt)
            t = next_frame if at_frame else t + dt
            ends.append(t)
            rows.append(row if at_frame else None)
    yield starts, dts, ends, rows


def run_simulation(
    scenario: Scenario,
    frame_interval: float = REFERENCE_CADENCE,
    cfl: float = REFERENCE_CFL,
) -> SimulationHistory:
    """Advance the chosen plant over [0, T] under quasi-static feedback.

    The run's RiccatiProblem is assembled once: it gives the feedback
    gain K0 at the interfaces (when control is on) and the linear plant's
    coefficients. The model is read once, before the loop, which binds
    each plant's state shift, stepper and the coefficients that stepper
    reads (see the comments there). Per step: write the ghosts of the
    buffer holding the state, with the boundary value at the step's start,
    take one explicit step into the other buffer, stop with SolverError if
    the density left [0, rho_max], and recompute the control from the
    new perturbation field (when enabled) for the next step, in buffers
    allocated once per run. The step size, shared by both plants, is
    stable_dt on the worst-case wave speed b_cap * u_max (b_cap being the
    clamp ceiling when control is on, else b_0), shortened only to land
    exactly on frame instants. The frame instants, every frame_interval
    seconds and at T, are listed first; the steps follow as one flat
    schedule, STEP_BLOCK steps at a time, each block's boundary values in
    one call. Each step carries the frame row it lands on, if any: the
    state and the control fill that row right after the step, and row 0
    before the first step. The density, the VSL rate and the total cars
    of every row follow after the last step. A run whose frame matrices
    would hold more than MAX_FRAME_VALUES values, or whose ceil(T / dt)
    fixed steps would take more than MAX_CELL_UPDATES cell updates,
    raises ValueError before any array, or the frame list, is built.
    """
    require_positive("frame_interval", frame_interval)
    p = scenario.params
    grid = scenario.grid
    n = grid.n_cells
    # the list below holds max(2, 1 + ceil((T - 1e-9) / frame_interval)) instants
    if (p.sim_time - 1e-9) / frame_interval > MAX_FRAME_VALUES // (n + 1) - 1:
        raise ValueError(
            f"frame_interval={frame_interval} s over sim_time={p.sim_time} s on n_cells="
            f"{n} asks for more than {MAX_FRAME_VALUES} values per frame matrix"
        )
    b_cap = scenario.clamp[1] if scenario.control_enabled else p.b_0
    dt_fixed = stable_dt(grid.dz, b_cap * p.u_max, cfl)
    # ceil(T / dt) <= MAX_CELL_UPDATES // n, written without a division that dt = 0 would fail
    if p.sim_time > dt_fixed * (MAX_CELL_UPDATES // n):
        b_name = "b_max" if scenario.control_enabled else "b_0"
        raise ValueError(
            f"sim_time={p.sim_time} s at dt={dt_fixed} s (cfl={cfl}, {b_name}={b_cap}) on "
            f"n_cells={n} asks for more than {MAX_CELL_UPDATES} cell updates"
        )
    problem = assemble_problem(p, scenario.q0, scenario.r0)
    gain = feedback_gain(grid.interfaces, problem) if scenario.control_enabled else None

    # The run's buffers, each overwritten in place: two ghost-extended states, one read
    # and the other written by each step, the control and the VSL profile; with control
    # off the last two stay 0 and b_0. The frame matrices take rows as the march goes.
    current, target = ghosted(n), ghosted(n)
    u_opt = np.zeros(n + 1)
    b_profile = np.full(n + 1, p.b_0)
    b_0, clamp = np.array(p.b_0), tuple(map(np.array, scenario.clamp))
    # the frame instants: 0, then min(k * frame_interval, T) until T is reached
    times = [0.0]
    while len(times) == 1 or times[-1] < p.sim_time - 1e-9:
        times.append(min(len(times) * frame_interval, p.sim_time))
    density_frames = np.empty((len(times), n))
    vsl_frames = np.empty((len(times), n + 1))
    control_frames = np.empty((len(times), n + 1))

    # The one plant choice. The plant's state is rho - base, and its stepper reads the
    # per-run coefficients, which hold its constants and views of the buffers above.
    # advance(current, target, dt, peak) takes one step, and bind_refresh(state) returns
    # the call that brings u_opt, and the profile with it, up to date from state after
    # a step; each of the two buffers has its own, bound once.
    if scenario.model == "linear":
        # the perturbation, stepped with V and B0 of the problem on the control itself:
        # the VSL profiles are integrated only for the frames, after the march
        base, stepper = p.rho_0, step_linear
        coefficients = linear_coefficients(problem, u_opt, grid, dt_fixed)

        def advance(current: Ghosted, target: Ghosted, dt: float, peak: float) -> np.ndarray:
            return stepper(grid, current, target.cells, coefficients, dt)

        def bind_refresh(state: np.ndarray) -> Callable[[], object]:
            return bind_control_field(state, gain, u_opt)
    else:
        # the absolute density, stepped on the VSL profile of every step's control; the
        # control reads the perturbation rho - rho_0 from a buffer of its own
        base, stepper = 0.0, step_nonlinear
        coefficients = nonlinear_coefficients(p, b_profile, grid, dt_fixed)
        perturbation, rho_0 = np.empty(n), np.array(p.rho_0)
        control = bind_control_field(perturbation, gain, u_opt)
        integrate = bind_integrate_vsl(u_opt, b_0, grid, clamp, b_profile)

        def advance(current: Ghosted, target: Ghosted, dt: float, peak: float) -> np.ndarray:
            return stepper(grid, current, target.cells, coefficients, dt, peak)

        def bind_refresh(state: np.ndarray) -> Callable[[], object]:
            def refresh() -> None:
                np.subtract(state, rho_0, perturbation)
                control()
                integrate()

            return refresh

    if gain is None:
        bind_refresh = (lambda state: lambda: None)

    np.subtract(initial_condition(grid.cell_centers, scenario), base, current.cells)
    peak = _check_density(current.cells, base, 0.0, scenario)
    refresh_current, refresh_target = bind_refresh(current.cells), bind_refresh(target.cells)
    refresh_current()
    density_frames[0] = current.cells
    control_frames[0] = u_opt
    inflow = 0.0
    outflow = 0.0
    for starts, dts, ends, rows in _step_blocks(times, dt_fixed):
        ghosts = (upstream_boundary(np.array(starts), scenario) - base).tolist()
        for ghost, dt, t, row in zip(ghosts, dts, ends, rows):
            apply_boundary(current.values, ghost)
            fluxes = advance(current, target, dt, peak)
            inflow += dt * fluxes.item(0)
            outflow += dt * fluxes.item(-1)
            peak = _check_density(target.cells, base, t, scenario)
            # the control of the new state drives the next step and, at a frame, is recorded
            refresh_target()
            current, target = target, current
            refresh_current, refresh_target = refresh_target, refresh_current
            if row is not None:
                density_frames[row] = current.cells
                control_frames[row] = u_opt
    # each row's VSL profile is integrated from its control, as the nonlinear march does
    # it bitwise; with control off, zeros integrate to b_0 exactly
    np.add(density_frames, base, density_frames)
    integrate_vsl(control_frames, b_0, grid, clamp, out=vsl_frames)
    return SimulationHistory(
        times=np.array(times),
        density_frames=density_frames,
        vsl_frames=vsl_frames,
        control_frames=control_frames,
        total_cars_series=total_cars(density_frames, grid),
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


def _run_member(member: Scenario, frame_interval: float, cfl: float) -> SimulationHistory | str:
    """One sweep member's outcome: its history, or the message of its run's abort."""
    try:
        return run_simulation(member, frame_interval, cfl)
    except (SolverError, ValueError) as exc:
        return str(exc)


def sweep_q0(
    scenario: Scenario,
    q0_list: list[float],
    frame_interval: float = REFERENCE_CADENCE,
    cfl: float = REFERENCE_CFL,
) -> Iterator[tuple[str, SimulationHistory | str]]:
    """Run one simulation per q0, identical otherwise, yielding each as it returns.

    q0_members checks the list when sweep_q0 is called, before any run
    starts. Each member runs when the iterator is advanced to it; it
    yields (q0_label, outcome) per member, in list order. The outcome is
    the member's SimulationHistory, or the message of the SolverError or
    ValueError its run raised, and the other members run as before.
    Nothing here keeps a yielded history, so a caller that drops it frees
    its frame matrices before the next member runs.
    """
    members = q0_members(scenario, q0_list)
    return ((q0_label(m.q0), _run_member(m, frame_interval, cfl)) for m in members)
