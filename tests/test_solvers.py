"""Finite-volume steppers: boundaries, the CFL step rule, upwind and Godunov.

Also verify's convergence studies, which run the steppers through the driver.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lwrvsl.scenario as scenario_module
from lwrvsl import verify
from lwrvsl import (
    SolverError,
    TrafficParams,
    apply_boundary,
    assemble_problem,
    flux,
    godunov_interface_flux,
    make_grid,
    reference_scenario,
    run_simulation,
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


def _ghosted(values, upstream_value):
    """values with its two ghost cells, in a buffer of its own."""
    return apply_boundary(np.empty(values.size + 2), values, upstream_value)

densities = st.floats(min_value=0.0, max_value=0.16, allow_nan=False)
# the critical density exactly, free-flow and congested cells, and the two ends
pinned_densities = st.one_of(st.sampled_from([0.0, RHO_C, 0.16]), densities)
# speed-limit rates inside the default clamp [0.1, 2.0]
rates = st.floats(min_value=0.1, max_value=2.0)


@st.composite
def _rows(draw, values, size):
    """An array of the given size whose entries are drawn values, placed at random."""
    knots = np.array(draw(st.lists(values, min_size=1, max_size=24)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    return knots[rng.integers(knots.size, size=size)]


def _reference_godunov_flux(rho_left, rho_right, b_interface, params):
    """The interface flux as first written: two flux calls, min(demand, supply)."""
    demand = flux(np.minimum(rho_left, RHO_C), b_interface, params)
    supply = flux(np.maximum(rho_right, RHO_C), b_interface, params)
    return np.minimum(demand, supply)


class TestApplyBoundary:
    def test_absolute_ghosts(self):
        values = np.array([0.04, 0.06])
        buffer = np.empty(4)
        extended = apply_boundary(buffer, values, 0.055)
        assert extended is buffer
        assert extended.tolist() == [0.055, 0.04, 0.06, 0.06]
        assert values.tolist() == [0.04, 0.06]

    def test_refill_leaves_no_stale_ghost(self):
        buffer = np.full(5, np.nan)
        values = np.array([0.01, 0.02, 0.03])
        assert apply_boundary(buffer, values, 0.04) is buffer
        assert buffer.tolist() == [0.04, 0.01, 0.02, 0.03, 0.03]
        # a second state in the same buffer keeps nothing of the first
        apply_boundary(buffer, np.array([0.05, 0.06, 0.07]), 0.08)
        assert buffer.tolist() == [0.08, 0.05, 0.06, 0.07, 0.07]
        assert values.tolist() == [0.01, 0.02, 0.03]


class TestStepLinear:
    def test_courant_one_translates_the_profile(self):
        grid = make_grid(2000.0, 50)
        values = 0.01 * np.exp(-((grid.cell_centers - 600.0) / 150.0) ** 2)
        dt = grid.dz / FREE_WAVE
        new_values, _ = step_linear(grid, _ghosted(values, 0.0), np.zeros(51), PROBLEM, dt)
        expected = np.concatenate(([0.0], values[:-1]))
        assert np.allclose(new_values, expected, rtol=0.0, atol=1e-14)

    def test_discrete_mass_identity(self):
        # cell sums obey sum(new - old) dz = -dt (F_out - F_in) + dt dz sum(source)
        grid = make_grid(2000.0, 40)
        values = 0.005 * np.sin(2.0 * np.pi * grid.cell_centers / 2000.0)
        u = 1e-5 * np.cos(np.pi * grid.interfaces / 2000.0)
        dt = 0.1
        new_values, fluxes = step_linear(grid, _ghosted(values, 0.002), u, PROBLEM, dt)
        lhs = np.sum(new_values - values) * grid.dz
        b0_coef = -flux(PARAMS.rho_0, 1.0, PARAMS)
        source = b0_coef * 0.5 * (u[:-1] + u[1:])
        rhs = -dt * (fluxes[-1] - fluxes[0]) + dt * grid.dz * np.sum(source)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-18)

    def test_uniform_control_acts_as_sink(self):
        grid = make_grid(2000.0, 20)
        u = np.full(21, 0.01)
        dt = 0.2
        new_values, _ = step_linear(grid, _ghosted(np.zeros(20), 0.0), u, PROBLEM, dt)
        expected = dt * (-flux(PARAMS.rho_0, 1.0, PARAMS)) * 0.01
        assert np.allclose(new_values, expected, rtol=1e-14, atol=0.0)
        assert np.all(new_values < 0.0)

    def test_reported_fluxes_are_upwind(self):
        grid = make_grid(2000.0, 4)
        values = np.array([0.001, 0.002, 0.003, 0.004])
        _, fluxes = step_linear(grid, _ghosted(values, 0.005), np.zeros(5), PROBLEM, 0.1)
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

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(n_cells=st.integers(min_value=2, max_value=800), data=st.data())
    def test_equals_the_two_call_form_bitwise(self, n_cells, data):
        # the stacked form evaluates flux once on (demand, supply) states;
        # every element must take the same IEEE operations as the two-call form
        values = data.draw(_rows(pinned_densities, n_cells + 2))
        b = data.draw(_rows(rates, n_cells + 1))
        out = godunov_interface_flux(values[:-1], values[1:], b, PARAMS)
        expected = _reference_godunov_flux(values[:-1], values[1:], b, PARAMS)
        assert out.shape == expected.shape == (values.size - 1,)
        assert out.tobytes() == expected.tobytes()
        scalar_b = data.draw(rates)
        out = godunov_interface_flux(values[:-1], values[1:], scalar_b, PARAMS)
        expected = _reference_godunov_flux(values[:-1], values[1:], scalar_b, PARAMS)
        assert out.tobytes() == expected.tobytes()

    @settings(max_examples=200, derandomize=True)
    @given(rho_left=pinned_densities, rho_right=pinned_densities, b=rates)
    def test_scalar_inputs_give_the_two_call_scalar(self, rho_left, rho_right, b):
        out = godunov_interface_flux(rho_left, rho_right, b, PARAMS)
        expected = _reference_godunov_flux(rho_left, rho_right, b, PARAMS)
        assert np.ndim(out) == 0
        assert np.float64(out).tobytes() == np.float64(expected).tobytes()


class TestStepNonlinear:
    def test_uniform_state_is_stationary(self):
        grid = make_grid(2000.0, 20)
        values = np.full(20, 0.05)
        new_values, fluxes = step_nonlinear(
            grid, _ghosted(values, 0.05), np.ones(21), PARAMS, 0.3
        )
        assert np.array_equal(new_values, values)
        assert np.all(fluxes == flux(0.05, 1.0, PARAMS))

    def test_discrete_conservation(self):
        grid = make_grid(2000.0, 40)
        values = 0.05 + 0.01 * np.sin(2.0 * np.pi * grid.cell_centers / 2000.0)
        dt = 0.2
        new_values, fluxes = step_nonlinear(
            grid, _ghosted(values, 0.052), np.ones(41), PARAMS, dt
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
        extended = _ghosted(np.full(8, RHO_C), RHO_C)
        b = np.full(9, 0.1)
        b[-1] = 2.0
        new_values, _ = step_nonlinear(grid, extended, b, PARAMS, 0.5)
        assert new_values.min() < 0.0
        scenario = reference_scenario(model="nonlinear")
        with pytest.raises(SolverError, match="left \\[0, rho_max\\] in the nonlinear run"):
            scenario_module._check_density(new_values, 0.0, 0.5, scenario)


def _convergence_run(model, n_cells):
    """The final absolute density of a convergence study's run, and its grid."""
    scenario = dataclasses.replace(
        reference_scenario(
            model=model, control_enabled=False, n_cells=n_cells,
            sim_time=verify.CONVERGENCE_TIME,
        ),
        bc_osc_amplitude=0.0,
        bc_growth_rate=0.0,
    )
    history = run_simulation(scenario, verify.CONVERGENCE_TIME)
    return history.density_frames[-1], scenario.grid


def _documented_solution(model, z, t):
    """rho(t, z) of the reference bump rho_0 + A sin(pi z / L) under rho(t, 0) = rho_0.

    The values are the documented ones (README "Configuration"). Every
    point carries the density of its characteristic foot z0, found by
    bisection of z0 + c t = z on [0, z]: c = |V| = c(rho_0) on the linear
    plant, c = c(rho(z0)) on the nonlinear one, with
    c(rho) = b_0 u_max (1 - 2 rho / rho_max). Points behind the
    characteristic from z = 0 carry rho_0.
    """
    rho_0, rho_max, u_max, length, amplitude = 0.05, 0.16, 115.0 / 3.6, 2000.0, 0.01

    def bump(foot):
        return rho_0 + amplitude * np.sin(np.pi * foot / length)

    def speed(foot):
        rho = np.full_like(foot, rho_0) if model == "linear" else bump(foot)
        return u_max * (1.0 - 2.0 * rho / rho_max)

    low, high = np.zeros_like(z), np.array(z, dtype=float)
    for _ in range(80):
        mid = 0.5 * (low + high)
        ahead = mid + speed(mid) * t > z
        high, low = np.where(ahead, mid, high), np.where(ahead, low, mid)
    behind = z <= u_max * (1.0 - 2.0 * rho_0 / rho_max) * t
    return np.where(behind, rho_0, bump(0.5 * (low + high)))


class TestConvergenceStudies:
    # verify's convergence studies are the driver's open-loop runs scored
    # against the documented solution, so a fault in the driver's step
    # or initial data fails them

    @pytest.mark.parametrize("model", ["linear", "nonlinear"])
    def test_errors_are_the_driver_runs_against_the_documented_solution(self, model):
        expected = []
        for n_cells in verify.CONVERGENCE_CELLS:
            final, grid = _convergence_run(model, n_cells)
            gap = final - _documented_solution(model, grid.cell_centers, verify.CONVERGENCE_TIME)
            expected.append(float(np.sum(np.abs(gap)) * grid.dz))
        studied = verify.convergence_l1_errors(model, verify.CONVERGENCE_CELLS)
        assert studied == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize(
        "model, stepper",
        [("linear", "step_linear"), ("nonlinear", "step_nonlinear")],
    )
    def test_a_half_length_step_fails_its_plant_check(self, monkeypatch, model, stepper):
        # the driver advances its clock by dt but integrates only dt / 2, an
        # O(1) time lag that no refinement removes: the ratios fall to ~1
        original = getattr(scenario_module, stepper)
        monkeypatch.setattr(
            scenario_module, stepper,
            lambda grid, extended, control, coefs, dt: original(
                grid, extended, control, coefs, 0.5 * dt
            ),
        )
        result = getattr(verify, f"check_convergence_{model}")()
        assert not result.passed
        assert 0.95 < result.measured < 1.05, result.detail

    def test_a_scaled_initial_bump_fails_the_linear_check(self, monkeypatch):
        # the exact solution comes from the documented bump, not from
        # initial_condition, so a driver whose bump is 10% too tall fails
        original = scenario_module.initial_condition

        def taller(z, scenario):
            rho_0 = scenario.params.rho_0
            return rho_0 + 1.1 * (original(z, scenario) - rho_0)

        monkeypatch.setattr(scenario_module, "initial_condition", taller)
        result = verify.check_convergence_linear()
        assert not result.passed, result.detail
