"""Reference scenario, boundary data, and the closed-loop simulation driver."""

import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lwrvsl.scenario as scenario_module
from lwrvsl import (
    REFERENCE_Q0_VALUES,
    Scenario,
    SimulationHistory,
    SolverError,
    absolute_density,
    characteristic_speed,
    flux,
    initial_condition,
    integrate_vsl,
    make_grid,
    reference_scenario,
    run_simulation,
    step_linear,
    step_nonlinear,
    sweep_q0,
    target_cars,
    time_to_target,
    total_cars,
    upstream_boundary,
)
from lwrvsl.scenario import mass_balance_defect


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

    def test_boundary_ramp_readings(self):
        km = reference_scenario(bc_reading="km")
        assert km.bc_decay_rate == 2e-6
        assert km.bc_growth_rate == 0.125
        m = reference_scenario(bc_reading="m")
        assert m.bc_decay_rate == 2e-3
        assert m.bc_growth_rate == 1.25e-4
        with pytest.raises(ValueError, match="bc_reading"):
            reference_scenario(bc_reading="mi")

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


class TestTimeToTarget:
    def test_always_in_band(self):
        history = _history([0.0, 1.0, 2.0], [100.0, 102.0, 99.0])
        assert time_to_target(history, 100.0) == 0.0

    def test_never_in_band(self):
        history = _history([0.0, 1.0, 2.0], [120.0, 119.0, 118.0])
        assert time_to_target(history, 100.0) is None

    def test_entry_time(self):
        history = _history([0.0, 1.0, 2.0, 3.0], [120.0, 110.0, 104.0, 103.0])
        assert time_to_target(history, 100.0) == 2.0

    def test_late_excursion_resets_the_clock(self):
        history = _history(
            [0.0, 1.0, 2.0, 3.0, 4.0], [104.0, 103.0, 111.0, 104.0, 103.0]
        )
        assert time_to_target(history, 100.0) == 3.0

    def test_out_of_band_final_frame_never_settles(self):
        history = _history([0.0, 1.0, 2.0], [104.0, 103.0, 111.0])
        assert time_to_target(history, 100.0) is None

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="length"):
            _history([0.0, 1.0], [100.0])


class TestRunSimulation:
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

    def test_nonlinear_runs_in_absolute_densities(self):
        scenario = _tiny(model="nonlinear")
        history = run_simulation(scenario, frame_interval=2.0)
        expected = initial_condition(scenario.grid.cell_centers, scenario)
        assert history.density_frames[0].tobytes() == expected.tobytes()
        assert np.all(history.density_frames[-1] > 0.0)

    def test_control_off_pins_the_speed_limit(self):
        history = run_simulation(_tiny(control_enabled=False), frame_interval=2.0)
        for u, b in zip(history.control_frames, history.vsl_frames):
            assert np.all(u == 0.0)
            assert np.all(b == 1.0)

    def test_control_on_moves_the_speed_limit(self):
        history = run_simulation(_tiny(q0=5e-4), frame_interval=2.0)
        assert np.any(history.vsl_frames[-1] != 1.0)
        assert np.any(history.control_frames[-1] != 0.0)

    def test_initial_frame_matches_initial_condition(self):
        scenario = _tiny()
        history = run_simulation(scenario, frame_interval=2.0)
        expected = initial_condition(scenario.grid.cell_centers, scenario) - 0.05
        assert np.allclose(history.density_frames[0], expected, rtol=1e-15, atol=1e-20)
        assert history.total_cars_series[0] == pytest.approx(
            total_cars(expected + 0.05, scenario.grid), rel=1e-12
        )

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

    @pytest.mark.parametrize("model", ["linear", "nonlinear"])
    def test_nan_density_aborts(self, model, monkeypatch):
        # NaN compares false with both bounds; the per-step check must still stop the run
        monkeypatch.setattr(scenario_module, "upstream_boundary", lambda t, scenario: math.nan)
        with pytest.raises(SolverError, match="left \\[0, rho_max\\]"):
            run_simulation(_tiny(model=model))

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
            expected = integrate_vsl(u_opt, scenario.params.b_0, scenario.grid, scenario.clamp)
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
        sweep, failures = sweep_q0(scenario, [5e-5, 5e-4], frame_interval=2.0)
        assert failures == {}
        assert [m.scenario.q0 for m in sweep] == [5e-5, 5e-4]
        single = run_simulation(
            dataclasses.replace(scenario, q0=5e-4), frame_interval=2.0
        )
        member = sweep[1]
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
        sweep, failures = sweep_q0(scenario, [5e-5, 1000.0, 5e-4])
        assert [m.scenario.q0 for m in sweep] == [5e-5, 5e-4]
        assert list(failures) == ["1000"]
        assert "left [0, rho_max]" in failures["1000"]
        for member in sweep:
            solo = run_simulation(dataclasses.replace(scenario, q0=member.scenario.q0))
            assert member.total_cars_series.tobytes() == (
                solo.total_cars_series.tobytes()
            )

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
    def _courant_checked(courants):
        """The two steppers, wrapped to record max|dq/drho| dt / dz on every call."""

        def linear(grid, extended, u_opt, problem, dt):
            courants.append(abs(problem.v_coef) * dt / grid.dz)
            return step_linear(grid, extended, u_opt, problem, dt)

        def nonlinear(grid, extended, b, params, dt):
            # a wave next to an interface moves at most as fast as the larger b allows
            b_adjacent = np.concatenate(([b[0]], np.maximum(b[:-1], b[1:]), [b[-1]]))
            speed = np.max(np.abs(characteristic_speed(extended, b_adjacent, params)))
            courants.append(speed * dt / grid.dz)
            return step_nonlinear(grid, extended, b, params, dt)

        return linear, nonlinear

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(
        q0_exponent=st.floats(min_value=-7.0, max_value=-3.0),
        amplitude_scale=st.floats(min_value=0.0, max_value=1.25),
        n_cells=st.integers(min_value=8, max_value=800),
        bc_reading=st.sampled_from(["km", "m"]),
        model=st.sampled_from(["linear", "nonlinear"]),
        control_enabled=st.booleans(),
    )
    def test_density_bounds_mass_balance_and_determinism(
        self, q0_exponent, amplitude_scale, n_cells, bc_reading, model, control_enabled
    ):
        scenario = reference_scenario(
            model=model,
            q0=10.0**q0_exponent,
            control_enabled=control_enabled,
            n_cells=n_cells,
            bc_reading=bc_reading,
            amplitude_scale=amplitude_scale,
            sim_time=20.0,
        )
        courants = []
        linear, nonlinear = self._courant_checked(courants)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scenario_module, "step_linear", linear)
            patch.setattr(scenario_module, "step_nonlinear", nonlinear)
            history = run_simulation(scenario)
        assert courants and max(courants) <= scenario_module.REFERENCE_CFL
        absolute = absolute_density(history)
        assert absolute.min() >= 0.0
        assert absolute.max() <= scenario.params.rho_max
        if model == "nonlinear":
            assert mass_balance_defect(history)[1] < 1e-9
        rerun = run_simulation(scenario)
        assert rerun.total_cars_series.tobytes() == history.total_cars_series.tobytes()
        for frame, again in zip(history.density_frames, rerun.density_frames):
            assert frame.tobytes() == again.tobytes()
