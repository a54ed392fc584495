"""Finite-volume steppers: fields, boundaries, CFL limits, upwind and Godunov."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lwrvsl import (
    DensityField,
    SolverError,
    StepResult,
    TrafficParams,
    apply_boundary,
    flux,
    godunov_interface_flux,
    make_grid,
    step_linear,
    step_nonlinear,
    to_absolute,
)

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

densities = st.floats(min_value=0.0, max_value=0.16, allow_nan=False)


class TestDensityField:
    def test_basic_construction(self):
        field = DensityField(np.array([0.04, 0.05]), "absolute", 3.0)
        assert field.n_cells == 2
        assert field.time == 3.0
        assert field.ghost_upstream is None
        assert field.ghost_downstream is None

    def test_accepts_lists(self):
        field = DensityField([0.01, 0.02], "perturbation", 0.0)
        assert isinstance(field.values, np.ndarray)
        assert field.values.dtype == np.float64

    def test_values_read_only(self):
        field = DensityField(np.array([0.04, 0.05]), "absolute", 0.0)
        with pytest.raises(ValueError):
            field.values[0] = 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            DensityField(np.zeros((2, 2)), "absolute", 0.0)
        with pytest.raises(ValueError):
            DensityField(np.array([]), "absolute", 0.0)
        with pytest.raises(ValueError, match="kind"):
            DensityField(np.zeros(2), "density", 0.0)
        with pytest.raises(ValueError):
            DensityField(np.zeros(2), "absolute", -1.0)


class TestStepResult:
    def test_flux_count_must_match(self):
        field = DensityField(np.zeros(4), "absolute", 0.0)
        with pytest.raises(ValueError, match="interface"):
            StepResult(field, np.zeros(4))
        result = StepResult(field, np.zeros(5))
        assert result.interface_fluxes.size == 5


class TestToAbsolute:
    def test_shifts_perturbations(self):
        field = DensityField(np.array([0.01, -0.01]), "perturbation", 7.0)
        shifted = to_absolute(field, PARAMS)
        assert shifted.kind == "absolute"
        assert shifted.time == 7.0
        assert np.array_equal(shifted.values, field.values + PARAMS.rho_0)
        assert shifted.ghost_upstream is None

    def test_absolute_passes_through(self):
        field = DensityField(np.array([0.05]), "absolute", 0.0)
        assert to_absolute(field, PARAMS) is field


class TestApplyBoundary:
    def test_absolute_ghosts(self):
        field = DensityField(np.array([0.04, 0.06]), "absolute", 0.0)
        bounded = apply_boundary(field, 0.055, PARAMS)
        assert bounded.ghost_upstream == 0.055
        assert bounded.ghost_downstream == 0.06
        assert field.ghost_upstream is None

    def test_perturbation_ghost_subtracts_equilibrium(self):
        field = DensityField(np.array([0.01, 0.02]), "perturbation", 0.0)
        bounded = apply_boundary(field, 0.06, PARAMS)
        assert bounded.ghost_upstream == 0.06 - PARAMS.rho_0
        assert bounded.ghost_downstream == 0.02

    def test_rejects_out_of_range_boundary(self):
        field = DensityField(np.array([0.05]), "absolute", 0.0)
        with pytest.raises(SolverError):
            apply_boundary(field, -0.01, PARAMS)
        with pytest.raises(SolverError):
            apply_boundary(field, 0.17, PARAMS)


def _bounded(values, kind, upstream, time=0.0):
    field = DensityField(values, kind, time)
    return apply_boundary(field, upstream, PARAMS)


class TestStepLinear:
    def test_courant_one_translates_the_profile(self):
        grid = make_grid(2000.0, 50)
        values = 0.01 * np.exp(-((grid.cell_centers - 600.0) / 150.0) ** 2)
        field = _bounded(values, "perturbation", PARAMS.rho_0)
        dt = grid.dz / FREE_WAVE
        result = step_linear(field, np.zeros(51), grid, PARAMS, dt)
        expected = np.concatenate(([0.0], values[:-1]))
        assert np.allclose(result.field.values, expected, rtol=0.0, atol=1e-14)
        assert result.field.time == dt

    def test_discrete_mass_identity(self):
        # cell sums obey sum(new - old) dz = -dt (F_out - F_in) + dt dz sum(source)
        grid = make_grid(2000.0, 40)
        values = 0.005 * np.sin(2.0 * np.pi * grid.cell_centers / 2000.0)
        field = _bounded(values, "perturbation", PARAMS.rho_0 + 0.002)
        u = 1e-5 * np.cos(np.pi * grid.interfaces / 2000.0)
        dt = 0.1
        result = step_linear(field, u, grid, PARAMS, dt)
        lhs = np.sum(result.field.values - values) * grid.dz
        b0_coef = -flux(PARAMS.rho_0, 1.0, PARAMS)
        source = b0_coef * 0.5 * (u[:-1] + u[1:])
        rhs = -dt * (
            result.interface_fluxes[-1] - result.interface_fluxes[0]
        ) + dt * grid.dz * np.sum(source)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-18)

    def test_uniform_control_acts_as_sink(self):
        grid = make_grid(2000.0, 20)
        field = _bounded(np.zeros(20), "perturbation", PARAMS.rho_0)
        u = np.full(21, 0.01)
        dt = 0.2
        result = step_linear(field, u, grid, PARAMS, dt)
        expected = dt * (-flux(PARAMS.rho_0, 1.0, PARAMS)) * 0.01
        assert np.allclose(result.field.values, expected, rtol=1e-14, atol=0.0)
        assert np.all(result.field.values < 0.0)

    def test_reported_fluxes_are_upwind(self):
        grid = make_grid(2000.0, 4)
        values = np.array([0.001, 0.002, 0.003, 0.004])
        field = _bounded(values, "perturbation", PARAMS.rho_0 + 0.005)
        result = step_linear(field, np.zeros(5), grid, PARAMS, 0.1)
        expected = FREE_WAVE * np.concatenate(([0.005], values))
        assert np.allclose(result.interface_fluxes, expected, rtol=1e-12, atol=0.0)

    def test_rejects_cfl_violation(self):
        grid = make_grid(2000.0, 400)
        field = _bounded(np.zeros(400), "perturbation", PARAMS.rho_0)
        with pytest.raises(SolverError, match="CFL"):
            step_linear(field, np.zeros(401), grid, PARAMS, 1.0)

    def test_rejects_bad_inputs(self):
        grid = make_grid(2000.0, 4)
        absolute = _bounded(np.full(4, 0.05), "absolute", 0.05)
        with pytest.raises(SolverError, match="perturbation"):
            step_linear(absolute, np.zeros(5), grid, PARAMS, 0.1)
        unbounded = DensityField(np.zeros(4), "perturbation", 0.0)
        with pytest.raises(SolverError, match="ghost"):
            step_linear(unbounded, np.zeros(5), grid, PARAMS, 0.1)
        field = _bounded(np.zeros(4), "perturbation", PARAMS.rho_0)
        with pytest.raises(SolverError):
            step_linear(field, np.zeros(4), grid, PARAMS, 0.1)
        with pytest.raises(SolverError):
            step_linear(field, np.zeros(5), grid, PARAMS, 0.0)


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
        field = _bounded(np.full(20, 0.05), "absolute", 0.05)
        result = step_nonlinear(field, np.ones(21), grid, PARAMS, 0.3)
        assert np.array_equal(result.field.values, field.values)
        assert np.all(result.interface_fluxes == flux(0.05, 1.0, PARAMS))

    def test_discrete_conservation(self):
        grid = make_grid(2000.0, 40)
        values = 0.05 + 0.01 * np.sin(2.0 * np.pi * grid.cell_centers / 2000.0)
        field = _bounded(values, "absolute", 0.052)
        dt = 0.2
        result = step_nonlinear(field, np.ones(41), grid, PARAMS, dt)
        lhs = np.sum(result.field.values - values) * grid.dz
        rhs = -dt * (result.interface_fluxes[-1] - result.interface_fluxes[0])
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-18)

    def test_rejects_cfl_violation(self):
        grid = make_grid(2000.0, 400)
        field = _bounded(np.full(400, 0.05), "absolute", 0.05)
        with pytest.raises(SolverError, match="CFL"):
            step_nonlinear(field, np.ones(401), grid, PARAMS, 1.0)

    def test_detects_density_escape(self):
        # at the critical density every characteristic speed vanishes, so
        # the CFL guard cannot limit dt; a jump in the speed-limit profile
        # then drains the last cell below zero within one large step
        grid = make_grid(40.0, 8)
        field = _bounded(np.full(8, RHO_C), "absolute", RHO_C)
        b = np.full(9, 0.1)
        b[-1] = 2.0
        with pytest.raises(SolverError, match="left \\[0, rho_max\\]"):
            step_nonlinear(field, b, grid, PARAMS, 0.5)

    def test_rejects_perturbation_fields(self):
        grid = make_grid(2000.0, 4)
        field = _bounded(np.zeros(4), "perturbation", PARAMS.rho_0)
        with pytest.raises(SolverError, match="absolute"):
            step_nonlinear(field, np.ones(5), grid, PARAMS, 0.1)
