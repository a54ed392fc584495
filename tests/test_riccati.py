"""Riccati boundary-value problem, feedback gain, and speed-limit assembly."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lwrvsl import assemble_problem, feedback_gain, verify
from lwrvsl.params import TrafficParams, make_grid
from lwrvsl.riccati import (
    DEFAULT_B_CLAMP,
    RiccatiProblem,
    control_field,
    control_field_explicit,
    integrate_vsl,
    phi_closed_form,
    phi_numeric_oracle,
)
from lwrvsl.scenario import REFERENCE_Q0_VALUES, total_cars
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


# the weights at which the oracle is checked: verify's four q0 at three r0
R0_VALUES = (0.25, 1.0, 4.0)
WEIGHTS = [(r0, q0) for r0 in R0_VALUES for q0 in REFERENCE_Q0_VALUES]


def _problem(q0=5e-5, r0=1.0):
    return assemble_problem(PARAMS, q0, r0)


def _reference_rk4(problem, n_steps):
    """The oracle's loop as first written: per-step step fractions, array filled in place."""
    gain_sq = problem.b0_coef**2 / problem.r0
    q0, v = problem.q0, problem.v_coef
    h = problem.length / n_steps
    phi = np.empty(n_steps + 1)
    phi[n_steps] = 0.0
    p = 0.0
    for i in range(n_steps, 0, -1):
        k1 = (q0 - gain_sq * p * p) / v
        a = p - 0.5 * h * k1
        k2 = (q0 - gain_sq * a * a) / v
        a = p - 0.5 * h * k2
        k3 = (q0 - gain_sq * a * a) / v
        a = p - h * k3
        k4 = (q0 - gain_sq * a * a) / v
        p = p - (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        phi[i - 1] = p
    return np.linspace(0.0, problem.length, n_steps + 1), phi


class TestAssembleProblem:
    def test_frozen_coefficients(self):
        problem = _problem()
        assert problem.v_coef == -11.979166666666666
        assert problem.b0_coef == -1.0980902777777777
        assert problem.q0 == 5e-5
        assert problem.r0 == 1.0
        assert problem.length == 2000.0
        # the RK4 oracle's pure-Python loop runs ~3x slower on numpy scalars
        assert type(problem.v_coef) is float and type(problem.b0_coef) is float

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

    @pytest.mark.parametrize("r0, q0", WEIGHTS)
    def test_equals_the_reference_loop_bitwise(self, r0, q0):
        problem = _problem(q0, r0)
        z, phi = phi_numeric_oracle(problem, 2000)
        z_ref, phi_ref = _reference_rk4(problem, 2000)
        assert z.tobytes() == z_ref.tobytes()
        assert phi.tobytes() == phi_ref.tobytes()

    @pytest.mark.parametrize("r0, q0", WEIGHTS)
    def test_verify_step_count_is_accurate(self, r0, q0):
        # far inside ORACLE_BOUND: the step count is chosen for accuracy, not
        # merely to pass the check (measured worst 2.7e-14, at r0 = 0.25)
        problem = _problem(q0, r0)
        z, phi = phi_numeric_oracle(problem, verify.ORACLE_STEPS)
        closed = phi_closed_form(z, problem)
        assert np.max(np.abs(closed - phi)) / np.max(closed) <= 1e-13


class TestVerifyChecks:
    def test_residual_check_catches_a_scaled_closed_form(self, monkeypatch):
        # Phi (1 + e) leaves a residual of e (q0 + B0^2 Phi^2 / r0), at least e q0
        closed_form = verify.phi_closed_form
        monkeypatch.setattr(
            verify, "phi_closed_form", lambda z, problem: closed_form(z, problem) * (1.0 + 1e-6)
        )
        result = verify.check_riccati_residual()
        assert result.name == "riccati-residual"
        assert not result.passed
        assert result.measured >= 1e-6

    def test_oracle_check_catches_a_scaled_closed_form(self, monkeypatch):
        closed_form = verify.phi_closed_form
        monkeypatch.setattr(
            verify, "phi_closed_form", lambda z, problem: closed_form(z, problem) * (1.0 + 2e-8)
        )
        result = verify.check_oracle_equivalence()
        assert not result.passed
        assert result.measured == pytest.approx(2e-8, rel=1e-3)

    def test_feedback_paths_catch_an_explicit_path_off_by_1e_9(self, monkeypatch):
        explicit = verify.control_field_explicit
        monkeypatch.setattr(
            verify,
            "control_field_explicit",
            lambda delta, problem, grid: explicit(delta, problem, grid) * (1.0 + 1e-9),
        )
        result = verify.check_feedback_paths()
        assert not result.passed
        assert result.measured == pytest.approx(1e-9, rel=1e-3)


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
    return amplitude * np.sin(np.pi * grid.cell_centers / grid.interfaces[-1])


def _gain(grid, problem):
    return feedback_gain(grid.interfaces, problem)


def _reference_interface_state(values):
    """The interface state as first written: one concatenate of both ends and the averages."""
    return np.concatenate(([values[0]], 0.5 * (values[:-1] + values[1:]), [values[-1]]))


def _reference_integrate_vsl(u_opt, b0, grid, clamp=DEFAULT_B_CLAMP):
    """The VSL integral as first written: cumsum, a concatenate and a clip."""
    increments = 0.5 * grid.dz * (u_opt[:-1] + u_opt[1:])
    profile = b0 + np.concatenate(([0.0], np.cumsum(increments)))
    return profile.clip(*clamp)


@st.composite
def _rows(draw, values, size):
    """An array of the given size whose entries are drawn values, placed at random."""
    knots = np.array(draw(st.lists(values, min_size=1, max_size=24)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    return knots[rng.integers(knots.size, size=size)]


cell_counts = st.integers(min_value=2, max_value=800)
# perturbations rho - rho_0 of densities in [0, rho_max], rho_c - rho_0 among them
perturbations = st.one_of(
    st.sampled_from([-0.05, 0.0, 0.03, 0.11]), st.floats(min_value=-0.05, max_value=0.11)
)
# db/dz at three magnitudes; on a 2 km road the largest binds the clamp on either side
controls = st.builds(
    lambda scale, x: scale * x,
    st.sampled_from([1e-6, 1e-4, 1e-2]),
    st.floats(min_value=-1.0, max_value=1.0),
)


class TestControlField:
    def test_two_code_paths_agree(self):
        grid = make_grid(2000.0, 64)
        problem = _problem()
        field = _perturbation_field(grid)
        u1 = control_field(field, _gain(grid, problem), np.empty(65))
        u2 = control_field_explicit(field, problem, grid)
        assert np.max(np.abs(u1 - u2)) <= 1e-12 * np.max(np.abs(u1))

    def test_two_code_paths_agree_for_general_r0(self):
        grid = make_grid(2000.0, 64)
        field = _perturbation_field(grid)
        for r0 in (0.25, 4.0):
            problem = _problem(r0=r0)
            u1 = control_field(field, _gain(grid, problem), np.empty(65))
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
        u = control_field(values, gain, np.empty(5))
        state = np.array([1.0, 1.5, 3.0, 6.0, 8.0])
        assert np.allclose(u, gain * state, rtol=1e-15, atol=0.0)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(n_cells=cell_counts, data=st.data())
    def test_interface_state_equals_the_concatenate_form_bitwise(self, n_cells, data):
        values = data.draw(_rows(perturbations, n_cells))
        gain = data.draw(_rows(st.floats(min_value=0.0, max_value=0.03), n_cells + 1))
        expected = _reference_interface_state(values)
        # a unit gain is exact and keeps -0.0, so the control is the interface state
        state = control_field(values, np.ones(n_cells + 1), np.empty(n_cells + 1))
        assert state.tobytes() == expected.tobytes()
        control = control_field(values, gain, np.empty(n_cells + 1))
        assert control.tobytes() == (gain * expected).tobytes()

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(n_cells=cell_counts, data=st.data())
    def test_out_is_filled_with_the_same_control(self, n_cells, data):
        values = data.draw(_rows(perturbations, n_cells))
        gain = data.draw(_rows(st.floats(min_value=0.0, max_value=0.03), n_cells + 1))
        out = np.full(n_cells + 1, np.nan)
        assert control_field(values, gain, out) is out
        assert out.tobytes() == (gain * _reference_interface_state(values)).tobytes()

    def test_zero_state_gives_zero_control(self):
        grid = make_grid(2000.0, 16)
        u = control_field(np.zeros(16), _gain(grid, _problem()), np.empty(17))
        assert np.all(u == 0.0)


class TestIntegrateVsl:
    def test_zero_control_reproduces_b0_exactly(self):
        grid = make_grid(2000.0, 32)
        profile = integrate_vsl(np.zeros(33), 1.0, grid, DEFAULT_B_CLAMP, np.empty(33))
        assert np.all(profile == 1.0)

    def test_constant_slope_integrates_to_ramp(self):
        grid = make_grid(2000.0, 32)
        slope = 1e-4
        profile = integrate_vsl(np.full(33, slope), 1.0, grid, DEFAULT_B_CLAMP, np.empty(33))
        expected = 1.0 + slope * grid.interfaces
        assert np.allclose(profile, expected, rtol=1e-12, atol=0.0)

    def test_clamps_to_bounds(self):
        grid = make_grid(2000.0, 32)
        up = integrate_vsl(np.full(33, 1.0), 1.0, grid, DEFAULT_B_CLAMP, np.empty(33))
        down = integrate_vsl(np.full(33, -1.0), 1.0, grid, DEFAULT_B_CLAMP, np.empty(33))
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
        u = control_field(field, _gain(grid, problem), np.empty(65))
        profile = integrate_vsl(u, 1.0, grid, DEFAULT_B_CLAMP, np.empty(65))
        assert np.min(profile) < 1.0
        assert np.max(profile) <= 1.0

    def test_positive_state_raises_the_limit(self):
        grid = make_grid(2000.0, 64)
        problem = _problem(5e-4)
        field = _perturbation_field(grid, amplitude=0.01)
        u = control_field(field, _gain(grid, problem), np.empty(65))
        profile = integrate_vsl(u, 1.0, grid, DEFAULT_B_CLAMP, np.empty(65))
        assert np.max(profile) > 1.0

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        n_cells=cell_counts,
        b0=st.floats(min_value=0.1, max_value=2.0, exclude_min=True, exclude_max=True),
        data=st.data(),
    )
    def test_equals_the_cumsum_form_bitwise(self, n_cells, b0, data):
        grid = make_grid(2000.0, n_cells)
        u_opt = data.draw(_rows(controls, n_cells + 1))
        profile = integrate_vsl(u_opt, b0, grid, DEFAULT_B_CLAMP, np.empty(n_cells + 1))
        assert profile.tobytes() == _reference_integrate_vsl(u_opt, b0, grid).tobytes()

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(n_cells=cell_counts, data=st.data())
    def test_out_is_filled_with_the_same_profile(self, n_cells, data):
        # a run refills one writable buffer on every step, its bounds as 0-d arrays
        grid = make_grid(2000.0, n_cells)
        u_opt = data.draw(_rows(controls, n_cells + 1))
        out = np.full(n_cells + 1, np.nan)
        clamp = tuple(map(np.array, DEFAULT_B_CLAMP))
        assert integrate_vsl(u_opt, np.array(1.0), grid, clamp, out) is out
        assert out.tobytes() == _reference_integrate_vsl(u_opt, 1.0, grid).tobytes()

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        n_cells=st.integers(min_value=2, max_value=3200),
        n_rows=st.integers(min_value=1, max_value=300),
        data=st.data(),
    )
    def test_a_matrix_equals_its_rows_bitwise(self, n_cells, n_rows, data):
        # a run integrates the recorded controls of all its frames in one call and sums
        # the cars of all its density frames in one more; each row must be its 1-D call.
        # The first row binds the clamp, on both sides from 8 cells on
        grid = make_grid(2000.0, n_cells)
        u_opt = data.draw(_rows(controls, n_rows * (n_cells + 1))).reshape(n_rows, -1)
        u_opt[0] = np.where(grid.interfaces < 500.0, 1e-2, -1e-2)
        out = np.full(u_opt.shape, np.nan)
        assert integrate_vsl(u_opt, 1.0, grid, DEFAULT_B_CLAMP, out) is out
        for row, profile in zip(u_opt, out):
            expected = integrate_vsl(row, 1.0, grid, DEFAULT_B_CLAMP, np.empty(n_cells + 1))
            assert profile.tobytes() == expected.tobytes()
        assert out[0].min() == DEFAULT_B_CLAMP[0]
        assert n_cells < 8 or out[0].max() == DEFAULT_B_CLAMP[1]
        densities = st.floats(min_value=0.0, max_value=0.16)
        rho = data.draw(_rows(densities, n_rows * n_cells)).reshape(n_rows, -1)
        totals = total_cars(rho, grid)
        assert totals.shape == (n_rows,)
        assert totals.tobytes() == np.array([total_cars(row, grid) for row in rho]).tobytes()

    def test_equals_the_cumsum_form_where_the_clamp_binds_on_both_sides(self):
        # the clamp acts on the whole integral: a rise past b = 5 over the first
        # 500 m, then a fall below b = -9 at the outlet
        grid = make_grid(2000.0, 64)
        u_opt = np.where(grid.interfaces < 500.0, 1e-2, -1e-2)
        profile = integrate_vsl(u_opt, 1.0, grid, DEFAULT_B_CLAMP, np.empty(65))
        assert profile.max() == DEFAULT_B_CLAMP[1]
        assert profile.min() == DEFAULT_B_CLAMP[0]
        assert profile.tobytes() == _reference_integrate_vsl(u_opt, 1.0, grid).tobytes()
