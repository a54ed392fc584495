"""Fundamental diagram: speeds, fluxes, and characteristic speeds."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lwrvsl.fundamental import (
    characteristic_speed,
    critical_density,
    equilibrium_speed,
    flux,
    vsl_speed,
)
from lwrvsl.params import TrafficParams

PARAMS = TrafficParams(
    rho_max=0.16,
    u_max=115.0 / 3.6,
    rho_0=0.05,
    b_0=1.0,
    road_length=2000.0,
    sim_time=120.0,
)

densities = st.floats(min_value=0.0, max_value=0.16, allow_nan=False)
vsl_rates = st.floats(min_value=0.0, max_value=2.5, allow_nan=False)


class TestEquilibriumSpeed:
    def test_empty_road_runs_at_free_speed(self):
        assert equilibrium_speed(0.0, PARAMS) == PARAMS.u_max

    def test_jam_density_stops_traffic(self):
        assert equilibrium_speed(PARAMS.rho_max, PARAMS) == 0.0

    def test_reference_values(self):
        assert equilibrium_speed(0.05, PARAMS) == 21.961805555555554
        assert equilibrium_speed(0.08, PARAMS) == 15.972222222222221

    def test_vectorized(self):
        rho = np.array([0.0, 0.05, 0.16])
        speeds = equilibrium_speed(rho, PARAMS)
        assert speeds.shape == (3,)
        assert speeds[0] == PARAMS.u_max
        assert speeds[2] == 0.0


class TestScalarReturnTypes:
    """Python floats in: np.float64 out of three relations, a float out of the fourth."""

    def test_relations_through_the_unit_array_return_float64(self):
        assert type(equilibrium_speed(0.05, PARAMS)) is np.float64
        assert type(vsl_speed(0.05, 1.2, PARAMS)) is np.float64
        assert type(flux(0.05, 1.2, PARAMS)) is np.float64

    def test_characteristic_speed_returns_float(self):
        assert type(characteristic_speed(0.05, 1.2, PARAMS)) is float


# the run's flux constants: rho_max and u_max as 0-d arrays, as nonlinear_coefficients binds
PARAMS_0D = dataclasses.replace(
    PARAMS, rho_max=np.array(PARAMS.rho_max), u_max=np.array(PARAMS.u_max)
)


@st.composite
def _rows(draw, values, size):
    """An array of the given size whose entries are drawn values, placed at random."""
    knots = np.array(draw(st.lists(values, min_size=1, max_size=24)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    return knots[rng.integers(knots.size, size=size)]


class TestOut:
    """Given out, each relation computes its whole chain there, to the allocating call's bytes."""

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        size=st.integers(min_value=1, max_value=401),
        params=st.sampled_from([PARAMS, PARAMS_0D]),
        data=st.data(),
    )
    def test_out_holds_the_allocating_calls_bytes(self, size, params, data):
        rho = data.draw(_rows(st.sampled_from([0.0, 0.08, 0.16]) | densities, size))
        b = data.draw(_rows(st.sampled_from([0.0, 1.0, 2.0]) | st.floats(0.0, 2.0), size))
        before = rho.tobytes(), b.tobytes()
        # the expression as first written, one temporary per operation
        written = params.u_max * (np.array(1.0) - rho / params.rho_max)
        cases = [
            (equilibrium_speed, (rho,), written),
            (vsl_speed, (rho, b), b * written),
            (flux, (rho, b), rho * (b * written)),
        ]
        for relation, args, expected in cases:
            allocated = relation(*args, params)
            out = np.full(size, np.nan)
            assert relation(*args, params, out) is out
            assert out.tobytes() == allocated.tobytes() == expected.tobytes()
        assert (rho.tobytes(), b.tobytes()) == before


class TestVslSpeed:
    def test_scales_equilibrium_speed(self):
        base = equilibrium_speed(0.05, PARAMS)
        assert vsl_speed(0.05, 1.0, PARAMS) == base
        assert vsl_speed(0.05, 0.5, PARAMS) == pytest.approx(0.5 * base, rel=1e-15)
        assert vsl_speed(0.05, 2.0, PARAMS) == pytest.approx(2.0 * base, rel=1e-15)

    def test_zero_rate_halts_traffic(self):
        assert vsl_speed(0.05, 0.0, PARAMS) == 0.0

    def test_broadcasts_rate_array(self):
        rates = np.array([0.5, 1.0, 2.0])
        speeds = vsl_speed(0.05, rates, PARAMS)
        assert speeds.shape == (3,)
        assert np.allclose(speeds / speeds[1], [0.5, 1.0, 2.0], rtol=1e-14)


class TestFlux:
    def test_vanishes_at_empty_and_jam(self):
        assert flux(0.0, 1.0, PARAMS) == 0.0
        assert flux(PARAMS.rho_max, 1.0, PARAMS) == 0.0

    def test_peak_at_critical_density(self):
        assert flux(critical_density(PARAMS), 1.0, PARAMS) == 1.2777777777777777

    def test_symmetry_about_critical_density(self):
        rho = np.linspace(0.0, 0.16, 33)
        mirrored = PARAMS.rho_max - rho
        assert np.allclose(
            flux(rho, 1.0, PARAMS), flux(mirrored, 1.0, PARAMS), rtol=1e-12, atol=1e-16
        )

    def test_linear_in_rate(self):
        assert flux(0.05, 2.0, PARAMS) == pytest.approx(
            2.0 * flux(0.05, 1.0, PARAMS), rel=1e-15
        )

    @settings(max_examples=200, derandomize=True)
    @given(rho=densities, b=vsl_rates)
    def test_bounded_by_capacity(self, rho, b):
        q = flux(rho, b, PARAMS)
        capacity = b * flux(critical_density(PARAMS), 1.0, PARAMS)
        assert 0.0 <= q <= capacity * (1.0 + 1e-12) + 1e-300


class TestCharacteristicSpeed:
    def test_reference_values(self):
        assert characteristic_speed(0.05, 1.0, PARAMS) == 11.979166666666666
        assert characteristic_speed(0.0, 1.0, PARAMS) == PARAMS.u_max
        assert characteristic_speed(PARAMS.rho_max, 1.0, PARAMS) == -PARAMS.u_max

    def test_vanishes_at_critical_density(self):
        assert characteristic_speed(critical_density(PARAMS), 1.0, PARAMS) == 0.0

    def test_scales_with_rate(self):
        assert characteristic_speed(0.05, 0.5, PARAMS) == pytest.approx(
            0.5 * characteristic_speed(0.05, 1.0, PARAMS), rel=1e-15
        )

    def test_is_flux_slope(self):
        # central difference of the flux matches the analytic slope
        h = 1e-7
        rho = 0.03
        fd = (flux(rho + h, 1.0, PARAMS) - flux(rho - h, 1.0, PARAMS)) / (2.0 * h)
        assert characteristic_speed(rho, 1.0, PARAMS) == pytest.approx(fd, rel=1e-7)

    @settings(max_examples=200, derandomize=True)
    @given(rho=densities, b=vsl_rates)
    def test_bounded_by_free_speed(self, rho, b):
        speed = characteristic_speed(rho, b, PARAMS)
        assert abs(speed) <= b * PARAMS.u_max * (1.0 + 1e-12)


class TestCriticalDensity:
    def test_half_of_jam_density(self):
        assert critical_density(PARAMS) == 0.08

    @settings(max_examples=100, derandomize=True)
    @given(
        rho=st.floats(min_value=0.0, max_value=0.16, allow_nan=False),
    )
    def test_flux_peaks_there(self, rho):
        peak = flux(critical_density(PARAMS), 1.0, PARAMS)
        assert flux(rho, 1.0, PARAMS) <= peak * (1.0 + 1e-12) + 1e-300


class TestMonotonicity:
    @settings(max_examples=200, derandomize=True)
    @given(rho_pair=st.tuples(densities, densities))
    def test_equilibrium_speed_nonincreasing(self, rho_pair):
        lo, hi = sorted(rho_pair)
        assert equilibrium_speed(hi, PARAMS) <= equilibrium_speed(lo, PARAMS) + 1e-15
