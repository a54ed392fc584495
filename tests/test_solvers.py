"""Finite-volume steppers: boundaries, the CFL step rule, upwind and Godunov.

Also verify's convergence studies, which run the steppers through the driver.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lwrvsl.scenario as scenario_module
from lwrvsl import assemble_problem, reference_scenario, run_simulation, verify
from lwrvsl.fundamental import flux
from lwrvsl.params import TrafficParams, make_grid
import lwrvsl.solvers as solvers_module
from lwrvsl.solvers import (
    FREE_FLOW_MARGIN,
    SolverError,
    apply_boundary,
    ghosted,
    godunov_interface_flux,
    linear_coefficients,
    nonlinear_coefficients,
    stable_dt,
    step_linear,
    step_nonlinear,
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
# the linear plant's coefficients V = -FREE_WAVE and B0 = -flux(rho_0, 1)
PROBLEM = assemble_problem(PARAMS, 5e-5)


def _ghosted(values, upstream_value):
    """values with its two ghost cells, in a buffer of its own."""
    buffer = ghosted(values.size)
    buffer.cells[:] = values
    apply_boundary(buffer.values, upstream_value)
    return buffer.values


def _buffer(extended):
    """A ghost-extended buffer holding a copy of the n + 2 values of extended."""
    buffer = ghosted(extended.size - 2)
    buffer.values[:] = extended
    return buffer


def _step_linear(grid, extended, u_opt, dt):
    """One step_linear call from extended: the new values and the interface fluxes.

    The run's fixed step is a different dt, so the stepper computes dt / dz itself.
    """
    out = np.empty(grid.n_cells)
    coefficients = linear_coefficients(PROBLEM, u_opt, grid, 2.0 * dt)
    fluxes = step_linear(grid, _buffer(extended), out, coefficients, dt)
    return out, fluxes.copy()


def _step_nonlinear(grid, extended, b_profile, dt):
    """One step_nonlinear call from extended, taken at its fixed step.

    The guard's peak is the largest cell, or NaN, as run_simulation's density check
    finds it. Returns the new values and the interface fluxes.
    """
    out = np.empty(grid.n_cells)
    coefficients = nonlinear_coefficients(PARAMS, b_profile, grid, dt)
    buffer = _buffer(extended)
    peak = float(np.max(buffer.cells))
    fluxes = step_nonlinear(grid, buffer, out, coefficients, dt, peak)
    return out, fluxes

densities = st.floats(min_value=0.0, max_value=0.16, allow_nan=False)
# the critical density exactly, free-flow and congested cells, and the two ends
pinned_densities = st.one_of(st.sampled_from([0.0, RHO_C, 0.16]), densities)
# speed-limit rates inside the default clamp [0.1, 2.0]
rates = st.floats(min_value=0.1, max_value=2.0)
# densities a free-flow step takes the demand flux alone for, the margin and 0 among them
FREE_FLOW_LIMIT = FREE_FLOW_MARGIN * RHO_C
free_flow_densities = st.one_of(
    st.sampled_from([0.0, FREE_FLOW_LIMIT]), st.floats(min_value=0.0, max_value=FREE_FLOW_LIMIT)
)


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


def _godunov_step(grid, extended, b_profile, params, dt):
    """The nonlinear step as first written: the Godunov flux at every interface."""
    fluxes = godunov_interface_flux(extended[:-1], extended[1:], b_profile, params)
    return extended[1:-1] - (dt / grid.dz) * (fluxes[1:] - fluxes[:-1]), fluxes


def _counted_godunov(monkeypatch_context):
    """Count the Godunov flux calls that step_nonlinear makes."""
    calls = []
    original = solvers_module.godunov_interface_flux

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch_context.setattr(solvers_module, "godunov_interface_flux", counted)
    return calls


class TestApplyBoundary:
    def test_absolute_ghosts(self):
        buffer = ghosted(2)
        buffer.cells[:] = [0.04, 0.06]
        extended = apply_boundary(buffer.values, 0.055)
        assert extended is buffer.values
        assert extended.tolist() == [0.055, 0.04, 0.06, 0.06]

    def test_refill_leaves_no_stale_ghost(self):
        buffer = ghosted(3)
        buffer.values[:] = np.nan
        buffer.cells[:] = [0.01, 0.02, 0.03]
        assert apply_boundary(buffer.values, 0.04) is buffer.values
        assert buffer.values.tolist() == [0.04, 0.01, 0.02, 0.03, 0.03]
        # a second state in the same buffer keeps nothing of the first
        buffer.cells[:] = [0.05, 0.06, 0.07]
        apply_boundary(buffer.values, 0.08)
        assert buffer.values.tolist() == [0.08, 0.05, 0.06, 0.07, 0.07]

    def test_views_share_the_buffer(self):
        buffer = ghosted(3)
        assert buffer.values.shape == (5,)
        assert buffer.left.base is buffer.values and buffer.left.size == 4
        assert buffer.cells.base is buffer.values and buffer.cells.size == 3
        buffer.values[:] = np.arange(5.0)
        assert buffer.left.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert buffer.cells.tolist() == [1.0, 2.0, 3.0]


class TestFixedStep:
    @pytest.mark.parametrize("model", ["linear", "nonlinear"])
    def test_the_fixed_step_gives_the_bits_of_any_other_step(self, model):
        # a dt equal to the coefficients' fixed step reads their 0-d dt and dt / dz,
        # any other dt is converted by the stepper: the same values either way
        grid = make_grid(2000.0, 40)
        values = 0.05 + 0.005 * np.sin(2.0 * np.pi * grid.cell_centers / 2000.0)
        interfaces = 1e-5 * np.cos(np.pi * grid.interfaces / 2000.0)
        dt = 0.9 * grid.dz / (2.0 * PARAMS.u_max)
        results = []
        for dt_fixed in (dt, 2.0 * dt):
            buffer, out = _buffer(_ghosted(values, 0.052)), np.empty(grid.n_cells)
            if model == "linear":
                coefficients = linear_coefficients(PROBLEM, interfaces, grid, dt_fixed)
                fluxes = step_linear(grid, buffer, out, coefficients, dt)
            else:
                b_profile = 1.0 + 1e3 * interfaces
                coefficients = nonlinear_coefficients(PARAMS, b_profile, grid, dt_fixed)
                fluxes = step_nonlinear(grid, buffer, out, coefficients, dt, values.max())
            results.append((out.tobytes(), fluxes.tobytes()))
        assert results[0] == results[1]


class TestStepLinear:
    def test_courant_one_translates_the_profile(self):
        grid = make_grid(2000.0, 50)
        values = 0.01 * np.exp(-((grid.cell_centers - 600.0) / 150.0) ** 2)
        dt = grid.dz / FREE_WAVE
        new_values, _ = _step_linear(grid, _ghosted(values, 0.0), np.zeros(51), dt)
        expected = np.concatenate(([0.0], values[:-1]))
        assert np.allclose(new_values, expected, rtol=0.0, atol=1e-14)

    def test_discrete_mass_identity(self):
        # cell sums obey sum(new - old) dz = -dt (F_out - F_in) + dt dz sum(source)
        grid = make_grid(2000.0, 40)
        values = 0.005 * np.sin(2.0 * np.pi * grid.cell_centers / 2000.0)
        u = 1e-5 * np.cos(np.pi * grid.interfaces / 2000.0)
        dt = 0.1
        new_values, fluxes = _step_linear(grid, _ghosted(values, 0.002), u, dt)
        lhs = np.sum(new_values - values) * grid.dz
        b0_coef = -flux(PARAMS.rho_0, 1.0, PARAMS)
        source = b0_coef * 0.5 * (u[:-1] + u[1:])
        rhs = -dt * (fluxes[-1] - fluxes[0]) + dt * grid.dz * np.sum(source)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-18)

    def test_uniform_control_acts_as_sink(self):
        grid = make_grid(2000.0, 20)
        u = np.full(21, 0.01)
        dt = 0.2
        new_values, _ = _step_linear(grid, _ghosted(np.zeros(20), 0.0), u, dt)
        expected = dt * (-flux(PARAMS.rho_0, 1.0, PARAMS)) * 0.01
        assert np.allclose(new_values, expected, rtol=1e-14, atol=0.0)
        assert np.all(new_values < 0.0)

    def test_reported_fluxes_are_upwind(self):
        grid = make_grid(2000.0, 4)
        values = np.array([0.001, 0.002, 0.003, 0.004])
        _, fluxes = _step_linear(grid, _ghosted(values, 0.005), np.zeros(5), 0.1)
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
        new_values, fluxes = _step_nonlinear(grid, _ghosted(values, 0.05), np.ones(21), 0.3)
        assert np.array_equal(new_values, values)
        assert np.all(fluxes == flux(0.05, 1.0, PARAMS))

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(n_cells=st.integers(min_value=2, max_value=800), data=st.data())
    def test_free_flow_step_equals_the_godunov_step_bitwise(self, n_cells, data):
        # at or below the margin supply is the capacity and exceeds every rounded
        # demand, so the demand alone must give the Godunov step's bytes
        grid = make_grid(2000.0, n_cells)
        extended = data.draw(_rows(free_flow_densities, n_cells + 2))
        b = data.draw(_rows(rates, n_cells + 1))
        dt = stable_dt(grid.dz, 2.0 * PARAMS.u_max, data.draw(st.floats(0.01, 1.0)))
        with pytest.MonkeyPatch.context() as patch:
            godunov_calls = _counted_godunov(patch)
            new_values, fluxes = _step_nonlinear(grid, extended, b, dt)
        expected_values, expected_fluxes = _godunov_step(grid, extended, b, PARAMS, dt)
        assert godunov_calls == []
        assert fluxes.tobytes() == expected_fluxes.tobytes()
        assert new_values.tobytes() == expected_values.tobytes()

    @pytest.mark.parametrize(
        "where", ["upstream ghost", "interior cell", "downstream ghost", "NaN cell", "NaN ghost"]
    )
    def test_a_value_above_the_margin_takes_the_godunov_flux(self, monkeypatch, where):
        # the guard reads the upstream ghost and the peak of the cells; the downstream
        # ghost repeats the last cell, so it is raised together with that cell
        grid = make_grid(2000.0, 8)
        cells = np.full(8, 0.05)
        upstream = 0.05
        above = np.nextafter(FREE_FLOW_LIMIT, 1.0)
        if where == "upstream ghost":
            upstream = above
        elif where == "NaN ghost":
            upstream = np.nan
        else:
            index = {"interior cell": 3, "downstream ghost": -1, "NaN cell": 2}[where]
            cells[index] = np.nan if where == "NaN cell" else above
        extended = _ghosted(cells, upstream)
        b = np.linspace(0.5, 1.5, 9)
        godunov_calls = _counted_godunov(monkeypatch)
        new_values, fluxes = _step_nonlinear(grid, extended, b, 0.1)
        expected_values, expected_fluxes = _godunov_step(grid, extended, b, PARAMS, 0.1)
        assert godunov_calls == [1]
        assert fluxes.tobytes() == expected_fluxes.tobytes()
        assert new_values.tobytes() == expected_values.tobytes()

    def test_a_free_flow_step_returns_the_runs_flux_buffer_and_allocates_nothing(self):
        # the fluxes go into the buffer of the coefficients, which the next step
        # overwrites; tracemalloc would see any temporary of a 401-value field
        grid = make_grid(2000.0, 400)
        values = 0.05 + 0.01 * np.sin(2.0 * np.pi * grid.cell_centers / 2000.0)
        buffer, out = _buffer(_ghosted(values, 0.052)), np.empty(grid.n_cells)
        b = np.linspace(0.9, 1.1, grid.n_cells + 1)
        coefficients = nonlinear_coefficients(PARAMS, b, grid, 0.2)
        peak = float(values.max())
        fluxes = step_nonlinear(grid, buffer, out, coefficients, 0.2, peak)
        assert fluxes is coefficients.fluxes
        expected_values, expected_fluxes = _godunov_step(grid, buffer.values, b, PARAMS, 0.2)
        assert fluxes.tobytes() == expected_fluxes.tobytes()
        assert out.tobytes() == expected_values.tobytes()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for _ in range(10):
                assert step_nonlinear(grid, buffer, out, coefficients, 0.2, peak) is fluxes
            peak_bytes = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak_bytes < 8 * grid.n_cells, f"{peak_bytes} B traced"

    def test_a_godunov_step_writes_the_runs_flux_buffer_too(self):
        grid = make_grid(2000.0, 8)
        extended = _ghosted(np.full(8, 0.05), np.nextafter(FREE_FLOW_LIMIT, 1.0))
        b = np.linspace(0.5, 1.5, 9)
        buffer, out = _buffer(extended), np.empty(8)
        coefficients = nonlinear_coefficients(PARAMS, b, grid, 0.1)
        fluxes = step_nonlinear(grid, buffer, out, coefficients, 0.1, 0.05)
        assert fluxes is coefficients.fluxes
        expected_values, expected_fluxes = _godunov_step(grid, extended, b, PARAMS, 0.1)
        assert fluxes.tobytes() == expected_fluxes.tobytes()
        assert out.tobytes() == expected_values.tobytes()

    def test_discrete_conservation(self):
        grid = make_grid(2000.0, 40)
        values = 0.05 + 0.01 * np.sin(2.0 * np.pi * grid.cell_centers / 2000.0)
        dt = 0.2
        new_values, fluxes = _step_nonlinear(grid, _ghosted(values, 0.052), np.ones(41), dt)
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
        new_values, _ = _step_nonlinear(grid, extended, b, 0.5)
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
            lambda grid, extended, out, coefficients, dt, *peak: original(
                grid, extended, out, coefficients, 0.5 * dt, *peak
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
