"""Run configuration: a documented YAML schema with road-unit keys.

The schema is key-value with nested sections; every dimensional key
carries its unit as a suffix (rho_max_per_km, u_max_kph, sim_time_s).
Unknown keys are rejected with their full path, and a key that matches a
known one up to the unit suffix gets a dedicated mismatch error. An
empty document yields the full reference configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

import yaml

from .params import params_from_paper_units, require_positive
from .riccati import DEFAULT_B_CLAMP
from .scenario import (
    REFERENCE_BC_OSC_AMPLITUDE,
    REFERENCE_BC_OSC_PERIOD,
    REFERENCE_CADENCE,
    REFERENCE_CFL,
    REFERENCE_IC_AMPLITUDE,
    REFERENCE_N_CELLS,
    REFERENCE_PARAMS,
    REFERENCE_Q0,
    REFERENCE_R0,
    Scenario,
    boundary_ramp,
)

FORMATS = ("csv", "json", "svg")


class ConfigError(ValueError):
    """Raised for malformed, unknown, or out-of-range configuration."""


@dataclass(frozen=True)
class RunConfig:
    """A parsed configuration: the scenario plus run and output policy."""

    scenario: Scenario
    cfl: float
    output_dir: str
    output_cadence: float
    formats: tuple[str, ...]

    def __post_init__(self) -> None:
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError("cfl must lie in (0, 1]")
        require_positive("output_cadence", self.output_cadence)
        if len(self.formats) == 0 or any(f not in FORMATS for f in self.formats):
            raise ValueError(f"formats must be a non-empty subset of {FORMATS}")


_SCHEMA: dict[str, dict[str, object]] = {
    "params": dict(REFERENCE_PARAMS),
    "scenario": {
        "model": "linear",
        "ic_amplitude_per_km": REFERENCE_IC_AMPLITUDE,
        "bc_osc_amplitude_per_km": REFERENCE_BC_OSC_AMPLITUDE,
        "bc_osc_period_s": REFERENCE_BC_OSC_PERIOD,
        "bc_reading": "km",
        "bc_decay_rate_per_s": None,
        "bc_growth_rate_per_km_s": None,
    },
    "control": {
        "enabled": True,
        "q0": REFERENCE_Q0,
        "r0": REFERENCE_R0,
        "b_min": DEFAULT_B_CLAMP[0],
        "b_max": DEFAULT_B_CLAMP[1],
    },
    "numerics": {
        "n_cells": REFERENCE_N_CELLS,
        "cfl": REFERENCE_CFL,
    },
    "output": {
        "dir": "out",
        "cadence_s": REFERENCE_CADENCE,
        "formats": list(FORMATS),
    },
}


def _merge_section(section: str, given: dict) -> dict:
    schema = _SCHEMA[section]
    for key in given:
        if key in schema:
            continue
        related = sorted(
            known
            for known in schema
            if known.startswith(str(key)) or str(key).startswith(known)
        )
        if related:
            raise ConfigError(
                f"unit-suffix mismatch at {section}.{key}: did you mean "
                f"{', '.join(repr(k) for k in related)}?"
            )
        raise ConfigError(f"unknown config key: {section}.{key}")
    return {**schema, **given}


def _number(section: str, key: str, value: object) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{section}.{key} must be a number, got {value!r}")
    return float(value)


def _count(section: str, key: str, value: object) -> int:
    number = _number(section, key, value)
    if not number.is_integer():  # also false for nan and inf
        raise ConfigError(f"{section}.{key} must be an integer, got {value!r}")
    return int(number)


def _flag(section: str, key: str, value: object) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{section}.{key} must be true or false, got {value!r}")
    return value


def parse_config(text: str) -> RunConfig:
    """Parse a YAML document into a RunConfig, applying defaults.

    Keys and value types are checked here. Each value's range is checked
    once, by what it is passed to (TrafficParams, boundary_ramp, Scenario
    and the make_grid it calls, RunConfig), and their ValueError is raised
    as ConfigError.
    """
    try:
        document = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed config: {exc}") from None
    if document is None:
        document = {}
    if not isinstance(document, dict):
        raise ConfigError("config root must be a mapping of sections")
    for section in document:
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section: {section}")
        if not isinstance(document[section], dict):
            raise ConfigError(f"config section {section} must be a mapping")
    merged = {
        section: _merge_section(section, document.get(section, {}))
        for section in _SCHEMA
    }
    try:
        return _run_config(merged)
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from None


def _run_config(merged: dict[str, dict]) -> RunConfig:
    par = merged["params"]
    params = params_from_paper_units(
        **{key: _number("params", key, value) for key, value in par.items()}
    )

    num = merged["numerics"]

    scn = merged["scenario"]
    bc_decay_rate, bc_growth_rate = boundary_ramp(scn["bc_reading"], params.road_length)
    if scn["bc_decay_rate_per_s"] is not None:
        bc_decay_rate = _number("scenario", "bc_decay_rate_per_s", scn["bc_decay_rate_per_s"])
    if scn["bc_growth_rate_per_km_s"] is not None:
        bc_growth_rate = _number(
            "scenario", "bc_growth_rate_per_km_s", scn["bc_growth_rate_per_km_s"]
        )

    ctl = merged["control"]
    scenario = Scenario(
        params=params,
        n_cells=_count("numerics", "n_cells", num["n_cells"]),
        q0=_number("control", "q0", ctl["q0"]),
        bc_decay_rate=bc_decay_rate,
        bc_growth_rate=bc_growth_rate,
        ic_amplitude=_number("scenario", "ic_amplitude_per_km", scn["ic_amplitude_per_km"]),
        bc_osc_amplitude=_number(
            "scenario", "bc_osc_amplitude_per_km", scn["bc_osc_amplitude_per_km"]
        ),
        bc_osc_period=_number("scenario", "bc_osc_period_s", scn["bc_osc_period_s"]),
        r0=_number("control", "r0", ctl["r0"]),
        control_enabled=_flag("control", "enabled", ctl["enabled"]),
        model=scn["model"],
        clamp=(
            _number("control", "b_min", ctl["b_min"]),
            _number("control", "b_max", ctl["b_max"]),
        ),
    )

    out = merged["output"]
    formats = out["formats"]
    if isinstance(formats, str):
        formats = [formats]
    if not isinstance(formats, list):
        raise ConfigError(f"output.formats must be a list, got {formats!r}")
    if not isinstance(out["dir"], str) or not out["dir"]:
        raise ConfigError("output.dir must be a non-empty string")
    return RunConfig(
        scenario=scenario,
        cfl=_number("numerics", "cfl", num["cfl"]),
        output_dir=out["dir"],
        output_cadence=_number("output", "cadence_s", out["cadence_s"]),
        formats=tuple(f for i, f in enumerate(formats) if f not in formats[:i]),
    )
