"""Physical parameters, unit conversions, and the spatial grid.

All internal computation uses SI units: density in cars/m, speed in m/s,
length in m, time in s.  Road data is usually quoted in cars/km and km/h;
:func:`params_from_paper_units` converts at the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# unit divisors: SI value = quoted value / divisor, quoted value = SI value * divisor
M_PER_KM = 1000.0   # cars/km / M_PER_KM -> cars/m
KMH_PER_MPS = 3.6   # km/h / KMH_PER_MPS -> m/s

# the finest grid: a 120 s run's three frame matrices at 0.5 s cadence take ~580 MB;
# run_simulation holds every run to that budget of frames x (n_cells + 1) values
MAX_N_CELLS = 100_000
MAX_FRAME_VALUES = 241 * (MAX_N_CELLS + 1)
# the most work a run may take, ceil(sim_time / dt) fixed steps of n_cells updates each:
# the reference run makes 768,000 cell updates (1,920 steps of 400 cells) in ~35 ms on
# a 2.1 GHz Xeon, so a run at the ceiling takes about a minute there
MAX_CELL_UPDATES = 1_000_000_000


def require_positive(name: str, value: float) -> None:
    """Raise ValueError unless value is finite and positive (NaN fails too)."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


@dataclass(frozen=True)
class TrafficParams:
    """Physical constants of a road stretch, in SI units.

    rho_max: jam density [cars/m]
    u_max: free-flow speed [m/s]
    rho_0: equilibrium density [cars/m]; must lie in (0, rho_max/2), the
        free-flow regime, where the linearized plant has V < 0 and B0 < 0
        and is stabilizable
    b_0: base VSL rate (dimensionless multiplier on u_max)
    road_length: [m]; pi * road_length must be finite
    sim_time: [s]
    """

    rho_max: float
    u_max: float
    rho_0: float
    b_0: float
    road_length: float
    sim_time: float

    def __post_init__(self) -> None:
        for name in ("rho_max", "u_max", "rho_0", "road_length", "sim_time", "b_0"):
            require_positive(name, getattr(self, name))
        # the initial condition reads sin(pi z / L) with z up to L
        if not math.isfinite(math.pi * self.road_length):
            raise ValueError(f"pi * road_length must be finite, got {self.road_length!r}")
        if self.rho_0 >= self.rho_max / 2:
            raise ValueError(
                "congested equilibrium: rho_0 must be below rho_max/2 "
                f"(got rho_0={self.rho_0}, rho_max/2={self.rho_max / 2})"
            )


@dataclass(frozen=True)
class Grid1D:
    """Uniform finite-volume grid on [0, road_length].

    Cell i spans [interfaces[i], interfaces[i+1]] with center cell_centers[i];
    there are n_cells + 1 interfaces.
    """

    n_cells: int
    dz: float
    cell_centers: np.ndarray
    interfaces: np.ndarray

    def __post_init__(self) -> None:
        self.cell_centers.setflags(write=False)
        self.interfaces.setflags(write=False)


def params_from_paper_units(
    rho_max_per_km: float,
    u_max_kph: float,
    rho_0_per_km: float,
    road_length_m: float,
    sim_time_s: float,
    b_0: float = 1.0,
) -> TrafficParams:
    """Build TrafficParams from road-engineering units (cars/km, km/h).

    Converts only; TrafficParams checks the converted values.
    """
    return TrafficParams(
        rho_max=rho_max_per_km / M_PER_KM,
        u_max=u_max_kph / KMH_PER_MPS,
        rho_0=rho_0_per_km / M_PER_KM,
        b_0=b_0,
        road_length=road_length_m,
        sim_time=sim_time_s,
    )


def make_grid(road_length: float, n_cells: int) -> Grid1D:
    """Uniform grid with n_cells in [2, MAX_N_CELLS] cells over [0, road_length]."""
    if not 2 <= n_cells <= MAX_N_CELLS:
        raise ValueError(f"n_cells must be between 2 and {MAX_N_CELLS}, got {n_cells}")
    if road_length <= 0:
        raise ValueError("road_length must be positive")
    dz = road_length / n_cells
    centers = (np.arange(n_cells) + 0.5) * dz
    interfaces = np.linspace(0.0, road_length, n_cells + 1)
    return Grid1D(n_cells=n_cells, dz=dz, cell_centers=centers, interfaces=interfaces)
