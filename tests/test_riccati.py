"""Riccati boundary-value problem, feedback gain, and speed-limit assembly."""

import math

import numpy as np
import pytest

from lwrvsl import (
    RiccatiProblem,
    TrafficParams,
    assemble_problem,
    control_field,
    control_field_explicit,
    feedback_gain,
    integrate_vsl,
    make_grid,
    phi_closed_form,
    phi_numeric_oracle,
)
from lwrvsl.riccati import DEFAULT_B_CLAMP
from lwrvsl.verify import ORACLE_BOUND

PARAMS = TrafficParams(
    rho_max=0.16,
    u_max=115.0 / 3.6,
    rho_0=0.05,
    b_0=1.0,
    road_length=2000.0,
    sim_time=120.0,
)

# Reference values computed with 50-digit arithmetic from the closed-form
# expression, rounded to the nearest double.
PHI_AT_ZERO = {
    1e-6: 0.00016511080106153435,
    1e-5: 0.0015046491597308447,
    5e-5: 0.005542950940357987,
    5e-4: 0.02035204882810158,
}
GAIN_AT_ZERO = {
    1e-6: 0.00018130656540177168,
    1e-5: 0.0016522406137669432,
    5e-5: 0.006086660537806297,
    5e-4: 0.022348386950996963,
}


def _problem(q0=5e-5, r0=1.0):
    return assemble_problem(PARAMS, q0, r0)


class TestAssembleProblem:
    def test_frozen_coefficients(self):
        problem = _problem()
        assert problem.v_coef == -11.979166666666666
        assert problem.b0_coef == -1.0980902777777777
        assert problem.q0 == 5e-5
        assert problem.r0 == 1.0
        assert problem.length == 2000.0

    def test_advection_coefficient_definition(self):
        problem = _problem()
        expected = -PARAMS.b_0 * PARAMS.u_max * (1.0 - 2.0 * PARAMS.rho_0 / PARAMS.rho_max)
        assert problem.v_coef == expected

    def test_actuation_coefficient_definition(self):
        problem = _problem()
        expected = -PARAMS.rho_0 * PARAMS.u_max * (1.0 - PARAMS.rho_0 / PARAMS.rho_max)
        assert problem.b0_coef == pytest.approx(expected, rel=1e-15)


class TestRiccatiProblem:
    def test_zero_q0_allowed_in_raw_problem(self):
        problem = RiccatiProblem(
            v_coef=-10.0, b0_coef=-1.0,
            q0=0.0, r0=1.0, length=1000.0,
        )
        assert problem.q0 == 0.0


class TestPhiClosedForm:
    def test_terminal_condition_is_exact_zero(self):
        for q0 in PHI_AT_ZERO:
            value = phi_closed_form(2000.0, _problem(q0))
            assert value == 0.0
            assert math.copysign(1.0, value) == 1.0

    def test_reference_values_at_inlet(self):
        for q0, expected in PHI_AT_ZERO.items():
            assert phi_closed_form(0.0, _problem(q0)) == pytest.approx(
                expected, rel=1e-13
            )

    def test_nonnegative_and_nonincreasing(self):
        z = np.linspace(0.0, 2000.0, 2001)
        phi = phi_closed_form(z, _problem())
        assert np.all(phi >= 0.0)
        assert np.all(np.diff(phi) <= 0.0)

    def test_scalar_and_array_forms(self):
        problem = _problem()
        scalar = phi_closed_form(500.0, problem)
        array = phi_closed_form(np.array([500.0, 500.0]), problem)
        assert isinstance(scalar, float)
        assert array.shape == (2,)
        assert array[0] == scalar

    def test_general_r0_matches_oracle(self):
        for r0 in (0.25, 4.0):
            for q0 in PHI_AT_ZERO:
                problem = _problem(q0, r0)
                z, phi = phi_numeric_oracle(problem, 100_000)
                closed = phi_closed_form(z, problem)
                assert np.max(np.abs(closed - phi)) / np.max(closed) < ORACLE_BOUND


class TestNumericOracle:
    def test_grid_shape_and_terminal_value(self):
        z, phi = phi_numeric_oracle(_problem(), 200)
        assert z.shape == phi.shape == (201,)
        assert z[0] == 0.0
        assert z[-1] == 2000.0
        assert phi[-1] == 0.0

    def test_matches_closed_form(self):
        problem = _problem()
        z, phi = phi_numeric_oracle(problem, 2000)
        closed = phi_closed_form(z, problem)
        scale = np.max(np.abs(closed))
        assert np.max(np.abs(phi - closed)) <= 1e-12 * scale

    def test_handles_general_r0(self):
        problem = RiccatiProblem(
            v_coef=-10.0, b0_coef=-1.0,
            q0=1e-5, r0=4.0, length=1000.0,
        )
        z, phi = phi_numeric_oracle(problem, 2000)
        closed = phi_closed_form(z, problem)
        scale = np.max(np.abs(closed))
        assert np.max(np.abs(phi - closed)) <= 1e-12 * scale

    def test_zero_q0_gives_zero_solution(self):
        problem = RiccatiProblem(
            v_coef=-10.0, b0_coef=-1.0,
            q0=0.0, r0=1.0, length=1000.0,
        )
        z, phi = phi_numeric_oracle(problem, 200)
        assert np.all(phi == 0.0)

    def test_rejects_coarse_grids(self):
        with pytest.raises(ValueError):
            phi_numeric_oracle(_problem(), 99)


class TestFeedbackGain:
    def test_reference_values_at_inlet(self):
        for q0, expected in GAIN_AT_ZERO.items():
            assert feedback_gain(0.0, _problem(q0)) == pytest.approx(
                expected, rel=1e-13
            )

    def test_zero_at_outlet(self):
        assert feedback_gain(2000.0, _problem()) == 0.0

    def test_nonnegative_and_below_sqrt_q0(self):
        z = np.linspace(0.0, 2000.0, 501)
        for q0 in PHI_AT_ZERO:
            gain = feedback_gain(z, _problem(q0))
            assert np.all(gain >= 0.0)
            assert np.all(gain <= math.sqrt(q0))

    def test_consistent_with_phi(self):
        problem = _problem()
        z = np.linspace(0.0, 2000.0, 101)
        expected = -problem.b0_coef * phi_closed_form(z, problem) / problem.r0
        assert np.array_equal(feedback_gain(z, problem), expected)


def _perturbation_field(grid, amplitude=0.01):
    return amplitude * np.sin(np.pi * grid.cell_centers / grid.length)


def _gain(grid, problem):
    return feedback_gain(grid.interfaces, problem)


class TestControlField:
    def test_two_code_paths_agree(self):
        grid = make_grid(2000.0, 64)
        problem = _problem()
        field = _perturbation_field(grid)
        u1 = control_field(field, _gain(grid, problem))
        u2 = control_field_explicit(field, problem, grid)
        assert np.max(np.abs(u1 - u2)) <= 1e-12 * np.max(np.abs(u1))

    def test_two_code_paths_agree_for_general_r0(self):
        grid = make_grid(2000.0, 64)
        field = _perturbation_field(grid)
        for r0 in (0.25, 4.0):
            problem = _problem(r0=r0)
            u1 = control_field(field, _gain(grid, problem))
            u2 = control_field_explicit(field, problem, grid)
            assert np.max(np.abs(u1 - u2)) <= 1e-12 * np.max(np.abs(u1))

    def test_interface_state_construction(self):
        grid = make_grid(100.0, 4)
        problem = RiccatiProblem(
            v_coef=-10.0, b0_coef=-1.0,
            q0=1e-5, r0=1.0, length=100.0,
        )
        values = np.array([1.0, 2.0, 4.0, 8.0])
        gain = feedback_gain(grid.interfaces, problem)
        u = control_field(values, gain)
        state = np.array([1.0, 1.5, 3.0, 6.0, 8.0])
        assert np.allclose(u, gain * state, rtol=1e-15, atol=0.0)

    def test_zero_state_gives_zero_control(self):
        grid = make_grid(2000.0, 16)
        u = control_field(np.zeros(16), _gain(grid, _problem()))
        assert np.all(u == 0.0)


class TestIntegrateVsl:
    def test_zero_control_reproduces_b0_exactly(self):
        grid = make_grid(2000.0, 32)
        profile = integrate_vsl(np.zeros(33), 1.0, grid)
        assert np.all(profile == 1.0)

    def test_constant_slope_integrates_to_ramp(self):
        grid = make_grid(2000.0, 32)
        slope = 1e-4
        profile = integrate_vsl(np.full(33, slope), 1.0, grid)
        expected = 1.0 + slope * grid.interfaces
        assert np.allclose(profile, expected, rtol=1e-12, atol=0.0)

    def test_clamps_to_bounds(self):
        grid = make_grid(2000.0, 32)
        up = integrate_vsl(np.full(33, 1.0), 1.0, grid)
        down = integrate_vsl(np.full(33, -1.0), 1.0, grid)
        assert np.max(up) == DEFAULT_B_CLAMP[1]
        assert np.min(down) == DEFAULT_B_CLAMP[0]
        assert up[0] == 1.0
        assert down[0] == 1.0

    def test_negative_state_lowers_the_limit(self):
        # a deficit of cars produces negative feedback u, hence a speed
        # limit dipping below its inlet anchor
        grid = make_grid(2000.0, 64)
        problem = _problem(5e-4)
        field = _perturbation_field(grid, amplitude=-0.01)
        u = control_field(field, _gain(grid, problem))
        profile = integrate_vsl(u, 1.0, grid)
        assert np.min(profile) < 1.0
        assert np.max(profile) <= 1.0

    def test_positive_state_raises_the_limit(self):
        grid = make_grid(2000.0, 64)
        problem = _problem(5e-4)
        field = _perturbation_field(grid, amplitude=0.01)
        u = control_field(field, _gain(grid, problem))
        profile = integrate_vsl(u, 1.0, grid)
        assert np.max(profile) > 1.0

    def test_control_field_record_is_read_only(self):
        grid = make_grid(2000.0, 8)
        profile = integrate_vsl(np.zeros(9), 1.0, grid)
        with pytest.raises(ValueError):
            profile[0] = 5.0
