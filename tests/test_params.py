"""Parameter validation, unit conversion, and grid construction."""

import dataclasses
import math

import numpy as np
import pytest

from lwrvsl import params_from_paper_units
from lwrvsl.params import KMH_PER_MPS, M_PER_KM, MAX_N_CELLS, TrafficParams, make_grid


def _valid_kwargs(**overrides):
    kwargs = dict(
        rho_max=0.16,
        u_max=30.0,
        rho_0=0.05,
        b_0=1.0,
        road_length=2000.0,
        sim_time=120.0,
    )
    kwargs.update(overrides)
    return kwargs


class TestTrafficParams:
    def test_valid_construction(self):
        params = TrafficParams(**_valid_kwargs())
        assert params.rho_max == 0.16
        assert params.u_max == 30.0
        assert params.rho_0 == 0.05
        assert params.b_0 == 1.0
        assert params.road_length == 2000.0
        assert params.sim_time == 120.0

    def test_rejects_nonpositive_fields(self):
        # rho_0 = 0 has no traffic to control: B0 = 0 and the feedback vanishes
        for name in ("rho_max", "u_max", "rho_0", "b_0", "road_length", "sim_time"):
            for bad in (0.0, -1.0, math.nan, math.inf):
                with pytest.raises(ValueError, match=name):
                    TrafficParams(**_valid_kwargs(**{name: bad}))

    def test_rejects_road_length_whose_pi_multiple_overflows(self):
        # sin(pi z / L) of the initial condition overflows to NaN above ~5.72e307 m
        for bad in (1.7e308, 1.0e308, 6.0e307):
            with pytest.raises(ValueError, match="road_length"):
                TrafficParams(**_valid_kwargs(road_length=bad))
        assert TrafficParams(**_valid_kwargs(road_length=5.0e307)).road_length == 5.0e307

    def test_rejects_negative_rho_0(self):
        with pytest.raises(ValueError, match="rho_0"):
            TrafficParams(**_valid_kwargs(rho_0=-0.01))

    def test_rejects_congested_equilibrium(self):
        # the control design assumes free flow, so rho_0 must stay below
        # half of rho_max
        with pytest.raises(ValueError, match="congested equilibrium"):
            TrafficParams(**_valid_kwargs(rho_0=0.08))
        with pytest.raises(ValueError, match="congested equilibrium"):
            TrafficParams(**_valid_kwargs(rho_0=0.12))

    def test_rho_0_just_below_critical_allowed(self):
        params = TrafficParams(**_valid_kwargs(rho_0=0.0799))
        assert params.rho_0 == 0.0799

    def test_frozen(self):
        params = TrafficParams(**_valid_kwargs())
        with pytest.raises(dataclasses.FrozenInstanceError):
            params.rho_max = 0.2


class TestQuotedUnits:
    def test_reference_table_conversion(self):
        params = params_from_paper_units(160.0, 115.0, 50.0, 2000.0, 120.0, 1.0)
        assert params.rho_max == 0.16
        assert params.u_max == 115.0 / 3.6
        assert params.rho_0 == 0.05
        assert params.b_0 == 1.0
        assert params.road_length == 2000.0
        assert params.sim_time == 120.0

    def test_identity_scale_values(self):
        params = params_from_paper_units(100.0, 3.6, 10.0, 500.0, 60.0, 0.8)
        assert params.rho_max == 0.1
        assert params.u_max == 1.0
        assert params.rho_0 == 0.01
        assert params.b_0 == 0.8

    def test_round_trip(self):
        params = params_from_paper_units(160.0, 115.0, 50.0, 2000.0, 120.0, 1.0)
        assert params.rho_max * M_PER_KM == pytest.approx(160.0, rel=1e-15)
        assert params.u_max * KMH_PER_MPS == pytest.approx(115.0, rel=1e-15)
        assert params.rho_0 * M_PER_KM == pytest.approx(50.0, rel=1e-15)

    def test_congested_quoted_density_rejected(self):
        with pytest.raises(ValueError, match="congested equilibrium"):
            params_from_paper_units(160.0, 115.0, 80.0, 2000.0, 120.0, 1.0)

    def test_invalid_quoted_values_rejected(self):
        with pytest.raises(ValueError):
            params_from_paper_units(0.0, 115.0, 50.0, 2000.0, 120.0, 1.0)
        with pytest.raises(ValueError):
            params_from_paper_units(160.0, -5.0, 50.0, 2000.0, 120.0, 1.0)
        with pytest.raises(ValueError, match="rho_0"):
            params_from_paper_units(160.0, 115.0, 0.0, 2000.0, 120.0, 1.0)


class TestGrid:
    def test_cell_geometry(self):
        grid = make_grid(2000.0, 4)
        assert grid.dz == 500.0
        assert np.array_equal(grid.cell_centers, [250.0, 750.0, 1250.0, 1750.0])
        assert np.array_equal(grid.interfaces, [0.0, 500.0, 1000.0, 1500.0, 2000.0])

    def test_default_resolution(self):
        grid = make_grid(2000.0, 400)
        assert grid.dz == 5.0
        assert grid.n_cells == 400
        assert grid.cell_centers.size == 400
        assert grid.interfaces.size == 401
        assert grid.interfaces[0] == 0.0
        assert grid.interfaces[-1] == 2000.0

    def test_centers_sit_between_interfaces(self):
        grid = make_grid(777.0, 7)
        mids = 0.5 * (grid.interfaces[:-1] + grid.interfaces[1:])
        assert np.allclose(grid.cell_centers, mids, rtol=1e-13, atol=0.0)

    def test_rejects_degenerate_grids(self):
        with pytest.raises(ValueError):
            make_grid(2000.0, 1)
        with pytest.raises(ValueError):
            make_grid(2000.0, 0)
        with pytest.raises(ValueError):
            make_grid(2000.0, MAX_N_CELLS + 1)
        assert make_grid(2000.0, MAX_N_CELLS).cell_centers.size == MAX_N_CELLS
        with pytest.raises(ValueError):
            make_grid(0.0, 10)
        with pytest.raises(ValueError):
            make_grid(-100.0, 10)

    def test_minimal_grid_allowed(self):
        grid = make_grid(10.0, 2)
        assert grid.dz == 5.0

    def test_arrays_are_read_only(self):
        grid = make_grid(2000.0, 4)
        with pytest.raises(ValueError):
            grid.cell_centers[0] = 1.0
        with pytest.raises(ValueError):
            grid.interfaces[0] = 1.0
