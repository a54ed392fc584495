"""Reference scenario, boundary data, and the closed-loop simulation driver."""

import dataclasses
import math
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lwrvsl.scenario as scenario_module
import lwrvsl.solvers as solvers_module
from lwrvsl import assemble_problem, feedback_gain, reference_scenario, run_simulation
from lwrvsl.fundamental import characteristic_speed, flux
from lwrvsl.params import make_grid
from lwrvsl.riccati import control_field, integrate_vsl
from lwrvsl.scenario import (
    REFERENCE_CADENCE,
    REFERENCE_CFL,
    REFERENCE_Q0_VALUES,
    Scenario,
    SimulationHistory,
    initial_condition,
    mass_balance_defect,
    sweep_q0,
    target_cars,
    time_to_target,
    total_cars,
    upstream_boundary,
)
from lwrvsl.solvers import (
    Ghosted, SolverError, linear_coefficients, nonlinear_coefficients, stable_dt, step_linear,
    step_nonlinear,
)


def _tiny(model="linear", **overrides):
    kwargs = dict(model=model, n_cells=20, sim_time=6.0)
    kwargs.update(overrides)
    return reference_scenario(**kwargs)


class TestReferenceScenario:
    def test_reference_parameters(self):
        scenario = reference_scenario()
        p = scenario.params
        assert p.rho_max == 0.16
        assert p.u_max == 115.0 / 3.6
        assert p.rho_0 == 0.05
        assert p.road_length == 2000.0
        assert p.sim_time == 120.0
        assert scenario.grid.n_cells == 400
        assert scenario.q0 == 5e-5
        assert scenario.ic_amplitude == 10.0
        assert scenario.bc_osc_amplitude == 5.0
        assert scenario.bc_osc_period == 20.0
        assert scenario.clamp == (0.1, 2.0)
        assert scenario.model == "linear"
        assert scenario.control_enabled

    def test_boundary_ramp_reads_km(self):
        # on the 2 km road: decay 2 * 1e-6 1/s and growth 1 / (4 * 2) cars/km/s
        scenario = reference_scenario()
        assert scenario.bc_decay_rate == 2e-6
        assert scenario.bc_growth_rate == 0.125

    def test_amplitude_scale(self):
        scenario = reference_scenario(amplitude_scale=0.5)
        assert scenario.ic_amplitude == 5.0
        assert scenario.bc_osc_amplitude == 2.5
        assert scenario.bc_growth_rate == 0.0625


class TestScenarioValidation:
    def test_rejects_bad_weights_and_model(self):
        base = reference_scenario()
        with pytest.raises(ValueError, match="q0"):
            dataclasses.replace(base, q0=0.0)
        with pytest.raises(ValueError, match="q0"):
            dataclasses.replace(base, q0=-1e-5)
        with pytest.raises(ValueError, match="r0"):
            dataclasses.replace(base, r0=0.0)
        with pytest.raises(ValueError, match="r0"):
            dataclasses.replace(base, r0=-1.0)
        with pytest.raises(ValueError, match="model"):
            dataclasses.replace(base, model="hybrid")
        with pytest.raises(ValueError, match="bc_osc_period"):
            dataclasses.replace(base, bc_osc_period=0.0)
        with pytest.raises(ValueError, match="bc_decay_rate"):
            dataclasses.replace(base, bc_decay_rate=-1e-6)
        with pytest.raises(ValueError, match="straddle"):
            dataclasses.replace(base, clamp=(1.5, 2.0))
        with pytest.raises(ValueError, match="straddle"):
            dataclasses.replace(base, clamp=(-0.5, 2.0))
        with pytest.raises(ValueError, match="finite and straddle"):
            dataclasses.replace(base, clamp=(0.1, math.inf))
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="q0"):
                dataclasses.replace(base, q0=bad)
            with pytest.raises(ValueError, match="r0"):
                dataclasses.replace(base, r0=bad)

    def test_rejects_data_leaving_the_free_flow_band(self):
        base = reference_scenario()
        with pytest.raises(ValueError, match="free-flow band"):
            dataclasses.replace(base, ic_amplitude=40.0)
        with pytest.raises(ValueError, match="free-flow band"):
            dataclasses.replace(base, bc_osc_amplitude=45.0)
        with pytest.raises(ValueError, match="free-flow band"):
            dataclasses.replace(base, ic_amplitude=-60.0)
        # NaN passes every comparison of the band check, so each field is
        # required finite on its own
        for name in ("ic_amplitude", "bc_osc_amplitude", "bc_growth_rate", "bc_decay_rate"):
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    dataclasses.replace(base, **{name: bad})


class TestBoundaryData:
    def test_initial_condition_profile(self):
        scenario = reference_scenario()
        L = scenario.params.road_length
        assert initial_condition(0.0, scenario) == pytest.approx(0.05, abs=1e-17)
        assert initial_condition(L / 2.0, scenario) == 0.060000000000000005
        assert initial_condition(L, scenario) == pytest.approx(0.05, abs=1e-17)
        z = np.linspace(0.0, L, 11)
        rho = initial_condition(z, scenario)
        assert rho.shape == (11,)
        assert np.all(rho >= 0.05 - 1e-17)

    def test_initial_condition_rejects_off_road_positions(self):
        scenario = reference_scenario()
        with pytest.raises(ValueError):
            initial_condition(-1.0, scenario)
        with pytest.raises(ValueError):
            initial_condition(2000.1, scenario)

    def test_upstream_boundary_starts_at_equilibrium(self):
        scenario = reference_scenario()
        assert upstream_boundary(0.0, scenario) == 0.05

    def test_upstream_boundary_oscillates_and_ramps(self):
        scenario = reference_scenario()
        # at half the oscillation period the sine peaks; the ramp has
        # added growth*t cars/m on top
        rho_10 = upstream_boundary(10.0, scenario)
        assert rho_10 > 0.05 + 4.9e-3
        # one full period later the sine vanishes, leaving only the ramp
        rho_20 = upstream_boundary(20.0, scenario)
        ramp = scenario.bc_growth_rate / 1000.0 * 20.0
        assert rho_20 == pytest.approx(0.05 + ramp, rel=1e-12)

    @settings(max_examples=200, derandomize=True)
    @given(
        times=st.lists(st.floats(min_value=0.0, max_value=120.0), min_size=1, max_size=50),
        scale=st.floats(0.0, 1.25),
    )
    def test_upstream_boundary_is_the_float_of_its_numpy_scalar_form(self, times, scale):
        # a run evaluates the boundary once, over the start times of all its steps;
        # every element must be the scalar form of its own time
        scenario = reference_scenario(amplitude_scale=scale)
        osc_amp = scenario.bc_osc_amplitude / 1000.0
        growth = scenario.bc_growth_rate / 1000.0
        values = upstream_boundary(np.array(times), scenario)
        assert values.shape == (len(times),)
        for t, value in zip(times, values.tolist()):
            expected = (
                scenario.params.rho_0
                + osc_amp
                * float(np.exp(-scenario.bc_decay_rate * t))
                * float(np.sin(np.pi * t / scenario.bc_osc_period))
                + growth * t
            )
            assert value.hex() == expected.hex()
            assert float(upstream_boundary(t, scenario)).hex() == expected.hex()

    def test_decay_shrinks_the_oscillation(self):
        fast = dataclasses.replace(reference_scenario(), bc_decay_rate=0.1)
        slow = reference_scenario()
        assert upstream_boundary(10.0, fast) < upstream_boundary(10.0, slow)


class TestTotals:
    def test_uniform_equilibrium_counts_exactly(self):
        grid = make_grid(2000.0, 400)
        assert total_cars(np.full(400, 0.05), grid) == 100.0

    def test_target_is_equilibrium_count(self):
        scenario = reference_scenario()
        assert target_cars(scenario.params) == 100.0


def _history(times, totals):
    n = len(times)
    frame = np.array([0.05])
    arr = np.zeros(2)
    return SimulationHistory(
        times=np.array(times, dtype=float),
        density_frames=(frame,) * n,
        vsl_frames=(arr,) * n,
        control_frames=(arr,) * n,
        total_cars_series=np.array(totals, dtype=float),
        inflow_cars=0.0,
        outflow_cars=0.0,
        scenario=_tiny(),
        cfl=0.9,
        frame_interval=1.0,
    )


def _entry(times, totals):
    return time_to_target(np.array(times), np.array(totals), 100.0)


class TestTimeToTarget:
    def test_always_in_band(self):
        assert _entry([0.0, 1.0, 2.0], [100.0, 102.0, 99.0]) == 0.0

    def test_never_in_band(self):
        assert _entry([0.0, 1.0, 2.0], [120.0, 119.0, 118.0]) is None

    def test_entry_time(self):
        assert _entry([0.0, 1.0, 2.0, 3.0], [120.0, 110.0, 104.0, 103.0]) == 2.0

    def test_late_excursion_resets_the_clock(self):
        assert _entry([0.0, 1.0, 2.0, 3.0, 4.0], [104.0, 103.0, 111.0, 104.0, 103.0]) == 3.0

    def test_out_of_band_final_frame_never_settles(self):
        assert _entry([0.0, 1.0, 2.0], [104.0, 103.0, 111.0]) is None

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="length"):
            _history([0.0, 1.0], [100.0])


def _reference_run(scenario, frame_interval, cfl=REFERENCE_CFL):
    """The closed loop as first written: a new ghost-extended copy per step.

    The boundary value, the VSL profile and the car count are computed per
    step or per frame, and each step writes a new array; the steppers take
    coefficients built for that step, for a fixed step no step here takes,
    so that they compute every dt / dz themselves. Returns the frame matrices and totals, the boundary
    car counts, and the ghost-extended state of every step.
    """
    p, grid = scenario.params, scenario.grid
    linear = scenario.model == "linear"
    b_cap = scenario.clamp[1] if scenario.control_enabled else p.b_0
    dt_fixed = stable_dt(grid.dz, b_cap * p.u_max, cfl)
    problem = assemble_problem(p, scenario.q0, scenario.r0)
    gain = feedback_gain(grid.interfaces, problem)
    base = p.rho_0 if linear else 0.0

    def control(values):
        if not scenario.control_enabled:
            return np.zeros(grid.n_cells + 1)
        return control_field(values - (p.rho_0 - base), gain, np.empty(grid.n_cells + 1))

    def vsl_profile(u_opt):
        if not scenario.control_enabled:
            return np.full(grid.n_cells + 1, p.b_0)
        return integrate_vsl(u_opt, p.b_0, grid, scenario.clamp, np.empty(grid.n_cells + 1))

    times = [0.0]
    while len(times) == 1 or times[-1] < p.sim_time - 1e-9:
        times.append(min(len(times) * frame_interval, p.sim_time))
    rows = {"density": [], "vsl": [], "control": [], "totals": []}
    inflow = outflow = 0.0
    extended_states = []
    state = initial_condition(grid.cell_centers, scenario) - base
    u_opt = control(state)
    b_profile = vsl_profile(u_opt)
    t = 0.0
    for next_frame in times:
        while t < next_frame:
            at_frame = t + dt_fixed >= next_frame - 1e-12
            dt = next_frame - t if at_frame else dt_fixed
            upstream = upstream_boundary(t, scenario) - base
            extended = np.concatenate(([upstream], state, state[-1:]))
            extended_states.append(extended)
            buffer = Ghosted(extended, extended[:-1], extended[1:-1])
            state = np.empty(grid.n_cells)
            if linear:
                coefficients = linear_coefficients(problem, u_opt, grid, 2.0 * dt_fixed)
                fluxes = step_linear(grid, buffer, state, coefficients, dt)
            else:
                coefficients = nonlinear_coefficients(p, b_profile, grid, 2.0 * dt_fixed)
                peak = float(np.max(extended[1:-1]))
                fluxes = step_nonlinear(grid, buffer, state, coefficients, dt, peak)
            inflow += dt * fluxes[0]
            outflow += dt * fluxes[-1]
            t = next_frame if at_frame else t + dt
            u_opt = control(state)
            b_profile = vsl_profile(u_opt)
        rows["density"].append(state + base)
        rows["vsl"].append(b_profile)
        rows["control"].append(u_opt)
        rows["totals"].append(total_cars(rows["density"][-1], grid))
    rows = {name: np.array(values) for name, values in rows.items()}
    return rows, inflow, outflow, extended_states


class TestRunSimulation:
    @pytest.mark.parametrize("control_enabled", [True, False])
    @pytest.mark.parametrize("model", ["linear", "nonlinear"])
    @pytest.mark.parametrize(
        "setup",
        [
            # at 16 cells dt is 1.76 s with control on (three steps per 4 s
            # frame, the last one cut) and 3.52 s with it off (two steps)
            (dict(n_cells=16, sim_time=8.0, q0=5e-4), 4.0, None),
            ({}, REFERENCE_CADENCE, None),
            # the default clamp never binds on the runs above; (0.99, 1.01) at q0 = 5e-4
            # does with control on
            (dict(n_cells=16, sim_time=8.0, q0=5e-4), 4.0, (0.99, 1.01)),
            (dict(q0=5e-4), REFERENCE_CADENCE, (0.99, 1.01)),
        ],
        ids=["16-cells", "reference", "16-cells-binding-clamp", "reference-binding-clamp"],
    )
    def test_equals_the_reference_loop_bitwise(
        self, setup, model, control_enabled, monkeypatch
    ):
        # the driver refills one ghost buffer per run. In free flow neither
        # stepper's output reads the downstream ghost, so the buffer each step
        # is given is compared too: a ghost written before the interior copy
        # would repeat the cell of the step before
        overrides, frame_interval, clamp = setup
        scenario = reference_scenario(model=model, control_enabled=control_enabled, **overrides)
        if clamp is not None:
            scenario = dataclasses.replace(scenario, clamp=clamp)
        buffers = []
        for name, stepper in (("step_linear", step_linear), ("step_nonlinear", step_nonlinear)):

            def recorded(grid, extended, *args, _stepper=stepper):
                buffers.append(extended.values.copy())
                return _stepper(grid, extended, *args)

            monkeypatch.setattr(scenario_module, name, recorded)
        history = run_simulation(scenario, frame_interval)
        rows, inflow, outflow, extended_states = _reference_run(scenario, frame_interval)
        if clamp is not None and control_enabled:
            on_clamp = np.isin(history.vsl_frames, clamp).sum()
            assert on_clamp > 0, "the clamp never binds"
        assert len(buffers) == len(extended_states)
        for ours, theirs in zip(buffers, extended_states):
            assert ours.tobytes() == theirs.tobytes()
        assert history.density_frames.tobytes() == rows["density"].tobytes()
        assert history.vsl_frames.tobytes() == rows["vsl"].tobytes()
        assert history.control_frames.tobytes() == rows["control"].tobytes()
        assert history.total_cars_series.tobytes() == rows["totals"].tobytes()
        assert history.inflow_cars.hex() == float(inflow).hex()
        assert history.outflow_cars.hex() == float(outflow).hex()

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        model=st.sampled_from(["linear", "nonlinear"]),
        control_enabled=st.booleans(),
        n_cells=st.integers(min_value=4, max_value=200),
        q0_exponent=st.floats(min_value=-7.0, max_value=-3.0),
        amplitude_scale=st.floats(min_value=0.0, max_value=1.25),
        # a frame every (steps + fraction) fixed steps, so the step reaching it is cut
        steps=st.integers(min_value=0, max_value=5),
        fraction=st.floats(min_value=0.1, max_value=0.9),
    )
    def test_equals_the_reference_loop_bitwise_over_drawn_scenarios(
        self, model, control_enabled, n_cells, q0_exponent, amplitude_scale, steps, fraction
    ):
        scenario = reference_scenario(
            model=model,
            q0=10.0**q0_exponent,
            control_enabled=control_enabled,
            n_cells=n_cells,
            amplitude_scale=amplitude_scale,
            sim_time=12.0,
        )
        p = scenario.params
        b_cap = scenario.clamp[1] if control_enabled else p.b_0
        dt = stable_dt(scenario.grid.dz, b_cap * p.u_max, REFERENCE_CFL)
        frame_interval = (steps + fraction) * dt
        history = run_simulation(scenario, frame_interval)
        rows, inflow, outflow, _ = _reference_run(scenario, frame_interval)
        assert history.density_frames.tobytes() == rows["density"].tobytes()
        assert history.vsl_frames.tobytes() == rows["vsl"].tobytes()
        assert history.control_frames.tobytes() == rows["control"].tobytes()
        assert history.total_cars_series.tobytes() == rows["totals"].tobytes()
        assert history.inflow_cars.hex() == float(inflow).hex()
        assert history.outflow_cars.hex() == float(outflow).hex()

    @pytest.mark.parametrize("model", ["linear", "nonlinear"])
    @pytest.mark.parametrize("block", [1, 2, 3, 4, 7])
    def test_any_step_block_equals_the_reference_loop(self, monkeypatch, model, block):
        # at 16 cells dt is 1.76 s: six steps, three per 4 s frame, the last one cut.
        # Blocks of 3 end on the frames, the others split a frame's steps, and each
        # block takes its boundary values in one call
        monkeypatch.setattr(scenario_module, "STEP_BLOCK", block)
        sizes = []
        boundary = scenario_module.upstream_boundary
        monkeypatch.setattr(
            scenario_module, "upstream_boundary",
            lambda t, scenario: sizes.append(len(t)) or boundary(t, scenario),
        )
        scenario = reference_scenario(model=model, n_cells=16, sim_time=8.0, q0=5e-4)
        history = run_simulation(scenario, 4.0)
        rows, inflow, outflow, _ = _reference_run(scenario, 4.0)
        assert sizes == [min(block, 6 - k) for k in range(0, 6, block)]
        assert history.density_frames.tobytes() == rows["density"].tobytes()
        assert history.vsl_frames.tobytes() == rows["vsl"].tobytes()
        assert history.control_frames.tobytes() == rows["control"].tobytes()
        assert history.total_cars_series.tobytes() == rows["totals"].tobytes()
        assert history.inflow_cars.hex() == float(inflow).hex()
        assert history.outflow_cars.hex() == float(outflow).hex()

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        dt=st.floats(min_value=1e-3, max_value=10.0),
        # a frame every (steps + fraction) fixed steps, so the step reaching it is cut
        steps=st.integers(min_value=0, max_value=5),
        fraction=st.floats(min_value=0.1, max_value=0.9),
        frames=st.floats(min_value=0.5, max_value=12.0),
        block=st.integers(min_value=1, max_value=8),
    )
    def test_the_schedule_lands_once_on_every_frame(self, dt, steps, fraction, frames, block):
        frame_interval = (steps + fraction) * dt
        sim_time = frames * frame_interval
        times = [0.0]
        while len(times) == 1 or times[-1] < sim_time - 1e-9:
            times.append(min(len(times) * frame_interval, sim_time))
        with mock.patch.object(scenario_module, "STEP_BLOCK", block):
            blocks = list(scenario_module._step_blocks(times, dt))
        assert all(0 < len(starts) <= block for starts, _, _, _ in blocks)
        starts, dts, ends, rows = ([x for b in blocks for x in b[i]] for i in range(4))
        assert len(starts) == len(dts) == len(ends) == len(rows)
        assert starts[0] == 0.0
        assert all(starts[k + 1] == ends[k] for k in range(len(ends) - 1))
        assert [row for row in rows if row is not None] == list(range(1, len(times)))
        assert rows[-1] == len(times) - 1
        # a step takes dt, and the step that reaches a frame is cut to end exactly on it
        for start, step, end, row in zip(starts, dts, ends, rows):
            if row is None:
                assert (step, end) == (dt, start + dt)
            else:
                assert (step, end) == (times[row] - start, times[row])

    def test_a_run_holds_a_bounded_part_of_its_schedule(self):
        # 4 cells at cfl 0.01 step 0.078 s: 12,778 steps in 1,000 s and 51,112 in
        # 4,000 s, in one frame each. A schedule listed whole took ~100 B per step,
        # ~3.8 MB more at the longer run; in blocks both peaks are equal
        peaks = []
        for sim_time in (1000.0, 4000.0):
            scenario = reference_scenario(n_cells=4, amplitude_scale=0.0, sim_time=sim_time)
            tracemalloc.start()
            try:
                run_simulation(scenario, frame_interval=sim_time, cfl=0.01)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + 100_000, f"traced peaks {peaks} B"

    def test_a_run_above_the_free_flow_margin_equals_the_reference_loop(self, monkeypatch):
        # the boundary wave peaks at 79.9 cars/km, between the margin 0.99 rho_c
        # (79.2) and rho_c (80): the run starts in free flow, takes the Godunov
        # flux while the wave crosses the road, then the demand flux again
        scenario = dataclasses.replace(
            reference_scenario(model="nonlinear", n_cells=40, sim_time=30.0),
            bc_osc_amplitude=29.9,
            bc_growth_rate=0.0,
        )
        assert upstream_boundary(10.0, scenario) > 0.99 * scenario.params.rho_max / 2.0
        calls = []
        godunov = solvers_module.godunov_interface_flux
        monkeypatch.setattr(
            solvers_module, "godunov_interface_flux",
            lambda *args: calls.append("godunov") or godunov(*args),
        )
        monkeypatch.setattr(
            solvers_module, "flux",
            lambda *args, **kwargs: calls.append("flux") or flux(*args, **kwargs),
        )
        history = run_simulation(scenario, 1.0)
        # a Godunov step calls flux once, inside godunov_interface_flux
        godunov_steps = calls.count("godunov")
        assert 0 < godunov_steps < calls.count("flux") - godunov_steps
        assert calls[0] == "flux" and calls[-2] != "godunov"  # free flow first and last
        monkeypatch.undo()
        rows, inflow, outflow, _ = _reference_run(scenario, 1.0)
        assert history.density_frames.tobytes() == rows["density"].tobytes()
        assert history.vsl_frames.tobytes() == rows["vsl"].tobytes()
        assert history.control_frames.tobytes() == rows["control"].tobytes()
        assert history.total_cars_series.tobytes() == rows["totals"].tobytes()
        assert history.inflow_cars.hex() == float(inflow).hex()
        assert history.outflow_cars.hex() == float(outflow).hex()
        # and with no free-flow branch at all, every step takes the Godunov flux
        monkeypatch.setattr(solvers_module, "FREE_FLOW_MARGIN", 0.0)
        godunov_only = run_simulation(scenario, 1.0)
        assert godunov_only.density_frames.tobytes() == history.density_frames.tobytes()
        assert godunov_only.vsl_frames.tobytes() == history.vsl_frames.tobytes()
        assert godunov_only.inflow_cars.hex() == history.inflow_cars.hex()
        assert godunov_only.outflow_cars.hex() == history.outflow_cars.hex()

    def test_the_guard_reads_the_checked_peak_and_the_upstream_ghost(self, monkeypatch):
        # an initial bump and a boundary wave both peak at 79.9 cars/km, between the
        # margin (79.2) and rho_c (80): the first steps exceed the margin in the cells
        # alone, later ones at the upstream ghost alone. The guard reads the peak that
        # the density check found after the step before, and the ghost, so a step takes
        # the Godunov flux exactly when a value of the buffer it reads is above the margin
        scenario = dataclasses.replace(
            reference_scenario(model="nonlinear", n_cells=40, sim_time=30.0),
            ic_amplitude=29.9,
            bc_osc_amplitude=29.9,
            bc_growth_rate=0.0,
        )
        limit = solvers_module.FREE_FLOW_MARGIN * scenario.params.rho_max / 2.0
        godunov = solvers_module.godunov_interface_flux
        calls = []
        monkeypatch.setattr(
            solvers_module, "godunov_interface_flux",
            lambda *args: calls.append(1) or godunov(*args),
        )
        steps = []

        def stepped(grid, extended, *args):
            before = len(calls)
            fluxes = step_nonlinear(grid, extended, *args)
            ghost_above = not extended.values[0] <= limit
            cells_above = not np.max(extended.values[1:]) <= limit
            steps.append((ghost_above, cells_above, len(calls) > before))
            return fluxes

        monkeypatch.setattr(scenario_module, "step_nonlinear", stepped)
        history = run_simulation(scenario, 1.0)
        assert all(took == (ghost or cells) for ghost, cells, took in steps)
        assert any(cells and not ghost for ghost, cells, _ in steps)
        assert any(ghost and not cells for ghost, cells, _ in steps)
        assert any(not took for _, _, took in steps)
        monkeypatch.undo()
        rows, inflow, outflow, _ = _reference_run(scenario, 1.0)
        assert history.density_frames.tobytes() == rows["density"].tobytes()
        assert history.vsl_frames.tobytes() == rows["vsl"].tobytes()
        assert history.total_cars_series.tobytes() == rows["totals"].tobytes()
        assert history.inflow_cars.hex() == float(inflow).hex()
        assert history.outflow_cars.hex() == float(outflow).hex()

    @pytest.mark.parametrize("model", ["linear", "nonlinear"])
    def test_boundary_car_counts_are_plain_floats(self, model):
        history = run_simulation(_tiny(model=model), frame_interval=2.0)
        assert type(history.inflow_cars) is float
        assert type(history.outflow_cars) is float
        assert "np.float64" not in repr(history)

    def test_frame_cadence_and_shapes(self):
        scenario = _tiny()
        history = run_simulation(scenario, frame_interval=1.0)
        assert np.array_equal(history.times, np.arange(7.0))
        assert history.density_frames.shape == (7, 20)
        assert history.vsl_frames.shape == (7, 21)
        assert history.control_frames.shape == (7, 21)
        assert history.total_cars_series.shape == (7,)
        for values in (history.times, history.density_frames, history.vsl_frames,
                       history.control_frames, history.total_cars_series):
            assert not values.flags.writeable

    def test_step_ending_just_short_of_the_end_still_records_it(self):
        # four fixed steps end 5e-10 s short of T; the frame at T must still be taken
        scenario = reference_scenario(
            model="nonlinear", control_enabled=False, n_cells=8, sim_time=1.0
        )
        p = scenario.params
        cfl = (1.0 - 5e-10) / 4.0 * p.b_0 * p.u_max / scenario.grid.dz
        history = run_simulation(scenario, frame_interval=1.0, cfl=cfl)
        assert history.times.tolist() == [0.0, 1.0]
        assert mass_balance_defect(history)[1] < 1e-9

    def test_control_off_pins_the_speed_limit(self):
        history = run_simulation(_tiny(control_enabled=False), frame_interval=2.0)
        for u, b in zip(history.control_frames, history.vsl_frames):
            assert np.all(u == 0.0)
            assert np.all(b == 1.0)

    def test_control_on_moves_the_speed_limit(self):
        history = run_simulation(_tiny(q0=5e-4), frame_interval=2.0)
        assert np.any(history.vsl_frames[-1] != 1.0)
        assert np.any(history.control_frames[-1] != 0.0)

    @pytest.mark.parametrize("model", ["linear", "nonlinear"])
    def test_frames_hold_rho_and_their_totals(self, model):
        # the linear state is rho - rho_0; with rho within a factor 2 of rho_0
        # that difference is exact, so adding rho_0 back gives rho bitwise
        scenario = _tiny(model=model)
        history = run_simulation(scenario, frame_interval=2.0)
        expected = initial_condition(scenario.grid.cell_centers, scenario)
        assert history.density_frames[0].tobytes() == expected.tobytes()
        for frame, total in zip(history.density_frames, history.total_cars_series):
            assert total.hex() == total_cars(frame, scenario.grid).hex()

    def test_deterministic(self):
        a = run_simulation(_tiny(), frame_interval=2.0)
        b = run_simulation(_tiny(), frame_interval=2.0)
        assert a.times.tobytes() == b.times.tobytes()
        assert a.total_cars_series.tobytes() == b.total_cars_series.tobytes()
        for fa, fb in zip(a.density_frames, b.density_frames):
            assert fa.tobytes() == fb.tobytes()
        assert a.inflow_cars == b.inflow_cars
        assert a.outflow_cars == b.outflow_cars

    def test_quiet_linear_boundary_admits_no_cars(self):
        scenario = dataclasses.replace(
            _tiny(), bc_osc_amplitude=0.0, bc_growth_rate=0.0, bc_decay_rate=0.0
        )
        history = run_simulation(scenario, frame_interval=2.0)
        assert history.inflow_cars == 0.0
        assert history.outflow_cars > 0.0

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError, match="frame_interval"):
            run_simulation(_tiny(), frame_interval=0.0)
        with pytest.raises(ValueError, match="frame_interval"):
            run_simulation(_tiny(), frame_interval=math.nan)
        with pytest.raises(ValueError, match="cfl"):
            run_simulation(_tiny(), cfl=1.5)

    def test_frame_budget_counts_the_frames_it_lists(self, monkeypatch):
        # 7 frames of 21 interface values fit a budget of 7 * 21 values and not one less
        monkeypatch.setattr(scenario_module, "MAX_FRAME_VALUES", 7 * 21)
        assert run_simulation(_tiny(), frame_interval=1.0).vsl_frames.shape == (7, 21)
        monkeypatch.setattr(scenario_module, "MAX_FRAME_VALUES", 7 * 21 - 1)
        with pytest.raises(ValueError, match="frame_interval=1.0 s over sim_time=6.0 s"):
            run_simulation(_tiny(), frame_interval=1.0)

    @pytest.mark.parametrize("model", ["linear", "nonlinear"])
    def test_nan_density_aborts(self, model, monkeypatch):
        # NaN compares false with both bounds; the per-step check must still stop the run
        # the run evaluates the boundary once, over the start times of its steps
        monkeypatch.setattr(
            scenario_module, "upstream_boundary",
            lambda t, scenario: np.full(np.shape(t), math.nan),
        )
        with pytest.raises(SolverError, match="left \\[0, rho_max\\]"):
            run_simulation(_tiny(model=model))

    @pytest.mark.parametrize("bad", [math.nan, -1e-9, 0.16 + 1e-9, math.inf])
    @pytest.mark.parametrize("index", [0, 7, -1])
    @pytest.mark.parametrize("base", [0.0, 0.05])
    def test_density_check_finds_a_bad_cell_anywhere(self, bad, index, base):
        # base is the plant's state shift: 0 on the nonlinear plant, rho_0 on the linear one
        scenario = reference_scenario()
        state = np.full(16, 0.06) - base
        scenario_module._check_density(state, base, 1.0, scenario)
        state[index] = bad - base
        with pytest.raises(SolverError, match="left \\[0, rho_max\\]"):
            scenario_module._check_density(state, base, 1.0, scenario)

    def test_linear_plant_reads_its_coefficients_once(self, monkeypatch):
        # V and B0 come from the run's RiccatiProblem, assembled once, not from
        # the fundamental diagram on every step; patch every lookup site
        counts = {}
        for function in (characteristic_speed, flux):
            counts[function.__name__] = 0

            def counted(*args, _function=function):
                counts[_function.__name__] += 1
                return _function(*args)

            for name, module in list(sys.modules.items()):
                if module is not None and (name == "lwrvsl" or name.startswith("lwrvsl.")):
                    for attr, value in list(vars(module).items()):
                        if value is function:
                            monkeypatch.setattr(module, attr, counted)
        run_simulation(reference_scenario(model="linear", n_cells=16, sim_time=4.0))
        assert counts == {"characteristic_speed": 1, "flux": 1}

    @pytest.mark.parametrize("model", ["linear", "nonlinear"])
    def test_each_recorded_profile_integrates_its_own_control(self, model):
        # the linear plant integrates its profile at frame instants only; every
        # recorded row must still be the profile of that frame's control. At 16
        # cells dt is 1.76 s, so each 4 s frame takes three steps
        scenario = reference_scenario(model=model, n_cells=16, sim_time=8.0, q0=5e-4)
        history = run_simulation(scenario, frame_interval=4.0)
        assert len(history.times) == 3
        assert np.any(history.vsl_frames != scenario.params.b_0)
        for u_opt, profile in zip(history.control_frames, history.vsl_frames):
            expected = integrate_vsl(
                u_opt, scenario.params.b_0, scenario.grid, scenario.clamp, np.empty(u_opt.size)
            )
            assert profile.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("model", ["linear", "nonlinear"])
    def test_control_off_records_the_base_profile(self, model):
        scenario = reference_scenario(
            model=model, n_cells=16, sim_time=8.0, control_enabled=False
        )
        history = run_simulation(scenario, frame_interval=4.0)
        base = np.full(scenario.grid.n_cells + 1, scenario.params.b_0)
        for profile in history.vsl_frames:
            assert profile.tobytes() == base.tobytes()

    def test_unstable_gain_aborts_cleanly(self):
        scenario = dataclasses.replace(_tiny(), q0=1000.0)
        with pytest.raises(SolverError, match="left \\[0, rho_max\\]"):
            run_simulation(scenario)


class TestSweep:
    def test_members_match_single_runs(self):
        scenario = _tiny()
        sweep = dict(sweep_q0(scenario, [5e-5, 5e-4], frame_interval=2.0))
        assert list(sweep) == ["5e-05", "0.0005"]
        assert [m.scenario.q0 for m in sweep.values()] == [5e-5, 5e-4]
        single = run_simulation(
            dataclasses.replace(scenario, q0=5e-4), frame_interval=2.0
        )
        member = sweep["0.0005"]
        assert member.total_cars_series.tobytes() == single.total_cars_series.tobytes()
        assert member.total_cars_series[-1] == single.total_cars_series[-1]

    def test_reference_weights_are_the_default_grid(self):
        assert REFERENCE_Q0_VALUES == (1e-6, 1e-5, 5e-5, 5e-4)

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            sweep_q0(_tiny(), [])

    def test_failures_are_tagged_with_q0(self):
        # q0 = 1000 drives the tiny run out of [0, rho_max]; the members
        # on either side of it must be bitwise equal to their solo runs
        scenario = _tiny()
        sweep = dict(sweep_q0(scenario, [5e-5, 1000.0, 5e-4]))
        assert list(sweep) == ["5e-05", "1000", "0.0005"]
        assert "left [0, rho_max]" in sweep.pop("1000")
        for member in sweep.values():
            solo = run_simulation(dataclasses.replace(scenario, q0=member.scenario.q0))
            assert member.total_cars_series.tobytes() == (
                solo.total_cars_series.tobytes()
            )

    def test_members_run_as_the_iterator_advances(self, monkeypatch):
        runs = []
        run = scenario_module.run_simulation
        monkeypatch.setattr(
            scenario_module, "run_simulation", lambda *args: runs.append(args) or run(*args)
        )
        sweep = sweep_q0(_tiny(), [5e-5, 5e-4], frame_interval=2.0)
        assert runs == []
        label, first = next(sweep)
        assert (label, first.scenario.q0, len(runs)) == ("5e-05", 5e-5, 1)
        assert [label for label, _ in sweep] == ["0.0005"]
        assert len(runs) == 2

    def test_bad_q0_rejected_before_any_run(self, monkeypatch):
        runs = []
        monkeypatch.setattr(scenario_module, "run_simulation", lambda *args: runs.append(args))
        with pytest.raises(ValueError, match="q0"):
            sweep_q0(_tiny(), [5e-5, -1.0])
        # both values are labelled 5e-05, so their artifacts would collide
        with pytest.raises(ValueError, match="share labels"):
            sweep_q0(_tiny(), [5e-5, 5.0000001e-5])
        assert runs == []


class TestGeneratedScenarios:
    """Run invariants over drawn scenarios, each step's Courant number among them.

    The inner loop itself checks nothing per flux and the steppers nothing at all.
    """

    @staticmethod
    def _courant_checked(courants, peaks, rho_0):
        """The two steppers, wrapped to record max|dq/drho| dt / dz and max rho on every call.

        The peak is taken over the ghost-extended state each stepper is given;
        the linear plant's state is rho - rho_0.
        """

        def linear(grid, extended, out, coefficients, dt):
            courants.append(float(abs(coefficients.neg_v) * dt / grid.dz))
            peaks.append(float(np.max(extended.values)) + rho_0)
            return step_linear(grid, extended, out, coefficients, dt)

        def nonlinear(grid, extended, out, coefficients, dt, peak):
            # a wave next to an interface moves at most as fast as the larger b allows
            b, params = coefficients.b_profile, coefficients.params
            b_adjacent = np.concatenate(([b[0]], np.maximum(b[:-1], b[1:]), [b[-1]]))
            speed = np.max(np.abs(characteristic_speed(extended.values, b_adjacent, params)))
            courants.append(float(speed * dt / grid.dz))
            peaks.append(float(np.max(extended.values)))
            return step_nonlinear(grid, extended, out, coefficients, dt, peak)

        return linear, nonlinear

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(
        q0_exponent=st.floats(min_value=-7.0, max_value=-3.0),
        amplitude_scale=st.floats(min_value=0.0, max_value=1.25),
        n_cells=st.integers(min_value=8, max_value=800),
        # the reference ramp, or the negligible one: 2e-3 1/s and scale/8000 cars/km/s
        ramp=st.sampled_from(["reference", "negligible"]),
        model=st.sampled_from(["linear", "nonlinear"]),
        control_enabled=st.booleans(),
    )
    def test_density_bounds_mass_balance_and_determinism(
        self, q0_exponent, amplitude_scale, n_cells, ramp, model, control_enabled
    ):
        scenario = reference_scenario(
            model=model,
            q0=10.0**q0_exponent,
            control_enabled=control_enabled,
            n_cells=n_cells,
            amplitude_scale=amplitude_scale,
            sim_time=20.0,
        )
        if ramp == "negligible":
            scenario = dataclasses.replace(
                scenario, bc_decay_rate=2e-3, bc_growth_rate=amplitude_scale / 8000.0
            )
        courants, peaks = [], []
        linear, nonlinear = self._courant_checked(courants, peaks, scenario.params.rho_0)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scenario_module, "step_linear", linear)
            patch.setattr(scenario_module, "step_nonlinear", nonlinear)
            history = run_simulation(scenario)
        assert courants and max(courants) <= scenario_module.REFERENCE_CFL
        # every step is in free flow, where the upstream Dirichlet ghost is valid
        assert max(peaks) < scenario.params.rho_max / 2.0
        assert history.density_frames.min() >= 0.0
        assert history.density_frames.max() <= scenario.params.rho_max
        if model == "nonlinear":
            assert mass_balance_defect(history)[1] < 1e-9
        rerun = run_simulation(scenario)
        assert rerun.total_cars_series.tobytes() == history.total_cars_series.tobytes()
        for frame, again in zip(history.density_frames, rerun.density_frames):
            assert frame.tobytes() == again.tobytes()
