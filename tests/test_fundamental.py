"""Fundamental diagram: speeds, fluxes, and characteristic speeds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lwrvsl import (
    TrafficParams,
    characteristic_speed,
    critical_density,
    equilibrium_speed,
    flux,
    vsl_speed,
)

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
