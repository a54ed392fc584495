"""Finite-volume steppers: boundaries, the CFL step rule, upwind and Godunov."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lwrvsl.scenario as scenario_module
from lwrvsl import (
    SimulationHistory,
    SolverError,
    TrafficParams,
    absolute_density,
    apply_boundary,
    assemble_problem,
    flux,
    godunov_interface_flux,
    make_grid,
    reference_scenario,
    step_linear,
    step_nonlinear,
)
from lwrvsl.solvers import stable_dt

PARAMS = TrafficParams(
    rho_max=0.16,
    u_max=115.0 / 3.6,
    rho_0=0.05,
    b_0=1.0,
    road_length=2000.0,
    sim_time=120.0,
)

RHO_C = 0.08
FREE_WAVE = 11.979166666666666
# the linear plant's coefficients V = -FREE_WAVE and B0 = -flux(rho_0, 1)
PROBLEM = assemble_problem(PARAMS, 5e-5)

densities = st.floats(min_value=0.0, max_value=0.16, allow_nan=False)


def _frames_history(frames, scenario):
    n = len(frames)
    zeros = np.zeros(len(frames[0]) + 1)
    return SimulationHistory(
        times=np.arange(n, dtype=float),
        density_frames=tuple(frames),
        vsl_frames=(zeros,) * n,
        control_frames=(zeros,) * n,
        total_cars_series=np.zeros(n),
        inflow_cars=0.0,
        outflow_cars=0.0,
        scenario=scenario,
        cfl=0.9,
        frame_interval=1.0,
    )


class TestToAbsolute:
    def test_shifts_perturbations(self):
        scenario = reference_scenario(model="linear")
        frames = (np.array([0.01, -0.01]), np.array([0.0, 0.02]))
        absolute = absolute_density(_frames_history(frames, scenario))
        assert absolute.shape == (2, 2)
        for row, frame in zip(absolute, frames):
            assert np.array_equal(row, frame + scenario.params.rho_0)

    def test_absolute_passes_through(self):
        scenario = reference_scenario(model="nonlinear")
        frames = (np.array([0.05, 0.04]), np.array([0.06, 0.05]))
        absolute = absolute_density(_frames_history(frames, scenario))
        assert np.array_equal(absolute, np.stack(frames))


class TestApplyBoundary:
    def test_absolute_ghosts(self):
        values = np.array([0.04, 0.06])
        extended = apply_boundary(values, 0.055)
        assert extended.tolist() == [0.055, 0.04, 0.06, 0.06]
        assert values.tolist() == [0.04, 0.06]


class TestStepLinear:
    def test_courant_one_translates_the_profile(self):
        grid = make_grid(2000.0, 50)
        values = 0.01 * np.exp(-((grid.cell_centers - 600.0) / 150.0) ** 2)
        dt = grid.dz / FREE_WAVE
        new_values, _ = step_linear(grid, apply_boundary(values, 0.0), np.zeros(51), PROBLEM, dt)
        expected = np.concatenate(([0.0], values[:-1]))
        assert np.allclose(new_values, expected, rtol=0.0, atol=1e-14)

    def test_discrete_mass_identity(self):
        # cell sums obey sum(new - old) dz = -dt (F_out - F_in) + dt dz sum(source)
        grid = make_grid(2000.0, 40)
        values = 0.005 * np.sin(2.0 * np.pi * grid.cell_centers / 2000.0)
        u = 1e-5 * np.cos(np.pi * grid.interfaces / 2000.0)
        dt = 0.1
        new_values, fluxes = step_linear(grid, apply_boundary(values, 0.002), u, PROBLEM, dt)
        lhs = np.sum(new_values - values) * grid.dz
        b0_coef = -flux(PARAMS.rho_0, 1.0, PARAMS)
        source = b0_coef * 0.5 * (u[:-1] + u[1:])
        rhs = -dt * (fluxes[-1] - fluxes[0]) + dt * grid.dz * np.sum(source)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-18)

    def test_uniform_control_acts_as_sink(self):
        grid = make_grid(2000.0, 20)
        u = np.full(21, 0.01)
        dt = 0.2
        new_values, _ = step_linear(grid, apply_boundary(np.zeros(20), 0.0), u, PROBLEM, dt)
        expected = dt * (-flux(PARAMS.rho_0, 1.0, PARAMS)) * 0.01
        assert np.allclose(new_values, expected, rtol=1e-14, atol=0.0)
        assert np.all(new_values < 0.0)

    def test_reported_fluxes_are_upwind(self):
        grid = make_grid(2000.0, 4)
        values = np.array([0.001, 0.002, 0.003, 0.004])
        _, fluxes = step_linear(grid, apply_boundary(values, 0.005), np.zeros(5), PROBLEM, 0.1)
        expected = FREE_WAVE * np.concatenate(([0.005], values))
        assert fluxes.shape == (5,)
        assert np.allclose(fluxes, expected, rtol=1e-12, atol=0.0)

    def test_rejects_cfl_violation(self):
        # the linear plant's one wave speed is |V|
        grid = make_grid(2000.0, 400)
        with pytest.raises(ValueError, match="cfl"):
            stable_dt(grid.dz, FREE_WAVE, 1.5)


class TestGodunovFlux:
    def test_consistency_with_the_flux_function(self):
        for rho in (0.0, 0.03, RHO_C, 0.12, 0.16):
            assert godunov_interface_flux(rho, rho, 1.0, PARAMS) == flux(
                rho, 1.0, PARAMS
            )

    def test_free_flow_takes_the_left_state(self):
        assert godunov_interface_flux(0.03, 0.06, 1.0, PARAMS) == flux(0.03, 1.0, PARAMS)

    def test_congested_flow_takes_the_right_state(self):
        assert godunov_interface_flux(0.12, 0.10, 1.0, PARAMS) == flux(0.10, 1.0, PARAMS)

    def test_transonic_rarefaction_runs_at_capacity(self):
        assert godunov_interface_flux(0.12, 0.03, 1.0, PARAMS) == flux(
            RHO_C, 1.0, PARAMS
        )

    def test_shock_takes_the_smaller_flux(self):
        assert godunov_interface_flux(0.03, 0.12, 1.0, PARAMS) == min(
            flux(0.03, 1.0, PARAMS), flux(0.12, 1.0, PARAMS)
        )

    def test_vectorized(self):
        left = np.array([0.03, 0.12])
        right = np.array([0.06, 0.10])
        out = godunov_interface_flux(left, right, np.array([1.0, 1.0]), PARAMS)
        assert out.shape == (2,)
        assert out[0] == flux(0.03, 1.0, PARAMS)
        assert out[1] == flux(0.10, 1.0, PARAMS)

    @settings(max_examples=200, derandomize=True)
    @given(rho_left=densities, rho_right=densities)
    def test_bounded_by_capacity(self, rho_left, rho_right):
        q = godunov_interface_flux(rho_left, rho_right, 1.0, PARAMS)
        assert 0.0 <= q <= flux(RHO_C, 1.0, PARAMS)

    @settings(max_examples=200, derandomize=True)
    @given(rho_left=densities, rho_right=densities, probe=densities)
    def test_monotone_in_both_arguments(self, rho_left, rho_right, probe):
        base = godunov_interface_flux(rho_left, rho_right, 1.0, PARAMS)
        raised_left = godunov_interface_flux(
            max(rho_left, probe), rho_right, 1.0, PARAMS
        )
        raised_right = godunov_interface_flux(
            rho_left, max(rho_right, probe), 1.0, PARAMS
        )
        assert raised_left >= base
        assert raised_right <= base


class TestStepNonlinear:
    def test_uniform_state_is_stationary(self):
        grid = make_grid(2000.0, 20)
        values = np.full(20, 0.05)
        new_values, fluxes = step_nonlinear(
            grid, apply_boundary(values, 0.05), np.ones(21), PARAMS, 0.3
        )
        assert np.array_equal(new_values, values)
        assert np.all(fluxes == flux(0.05, 1.0, PARAMS))

    def test_discrete_conservation(self):
        grid = make_grid(2000.0, 40)
        values = 0.05 + 0.01 * np.sin(2.0 * np.pi * grid.cell_centers / 2000.0)
        dt = 0.2
        new_values, fluxes = step_nonlinear(
            grid, apply_boundary(values, 0.052), np.ones(41), PARAMS, dt
        )
        lhs = np.sum(new_values - values) * grid.dz
        rhs = -dt * (fluxes[-1] - fluxes[0])
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-18)

    def test_rejects_cfl_violation(self):
        # the nonlinear plant's waves are bounded by b u_max
        grid = make_grid(2000.0, 400)
        with pytest.raises(ValueError, match="cfl"):
            stable_dt(grid.dz, PARAMS.b_0 * PARAMS.u_max, 1.5)

    def test_detects_density_escape(self):
        # at the critical density every characteristic speed vanishes, so
        # no wave speed limits dt; a jump in the speed-limit profile then
        # drains the last cell below zero within one large step, and the
        # driver's density check stops the run on that state
        grid = make_grid(40.0, 8)
        extended = apply_boundary(np.full(8, RHO_C), RHO_C)
        b = np.full(9, 0.1)
        b[-1] = 2.0
        new_values, _ = step_nonlinear(grid, extended, b, PARAMS, 0.5)
        assert new_values.min() < 0.0
        scenario = reference_scenario(model="nonlinear")
        with pytest.raises(SolverError, match="left \\[0, rho_max\\] in the nonlinear run"):
            scenario_module._check_density(new_values, 0.0, 0.5, scenario)
